"""Command-line interface.

Exit codes: 0 success/accept, 1 reject/infeasible, 2 usage or document
error, 3 internal assertion failure.  Documents are read, and output files
written, as UTF-8.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coloring import verify_kempe, verify_matching_partition, verify_transversal
from .errors import (
    BudgetExceededError,
    InternalAssertionError,
    InvalidInputError,
    KempeMinorError,
    ParseError,
    SchemaViolationError,
)
from .generators import delete_vertex, gen_circulant, k4_seed, splice
from .oracle import OracleBudget, oracle_solve
from .serialization import (
    emit_instance,
    emit_solution,
    line_graph_to_dot,
    parse_instance,
    parse_solution,
)
from .solver import solve, verify_solution

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_NO_TRANSVERSAL = "instance has no transversal; add one or use `verify`"


def _parse_file(path, parse):
    """Parse a document file, which JSON requires to be UTF-8."""
    data = Path(path).read_bytes()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None


def _read(path, parse):
    """``_parse_file``, with the file named in a ParseError or
    SchemaViolationError."""
    try:
        return _parse_file(path, parse)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except SchemaViolationError as exc:
        raise SchemaViolationError(f"{path}: {exc.path}", exc.message) from None


def _default_transversal(part):
    for i, cls in enumerate(part.classes):
        if not cls:
            raise InvalidInputError(f"class {i} is empty and there is no transversal")
    return frozenset(min(cls) for cls in part.classes)


def _shifts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _cmd_solve(args) -> int:
    H, part, T = _read(args.instance, parse_instance)
    if T is None:
        print(_NO_TRANSVERSAL, file=sys.stderr)
        return EXIT_USAGE
    bags, trace = solve(H, part, T)
    Path(args.output).write_text(
        emit_solution(bags, trace if args.trace else None), encoding="utf-8"
    )
    print(f"solved: {len(bags)} bags -> {args.output}")
    return EXIT_OK


def _cmd_check(args) -> int:
    H, part, T = _read(args.instance, parse_instance)
    if T is None:
        print(_NO_TRANSVERSAL, file=sys.stderr)
        return EXIT_USAGE
    bags = _read(args.solution, parse_solution)
    verdict = verify_solution(H, part, T, bags)
    if verdict:
        print("accept")
        return EXIT_OK
    for violation in verdict.violations:
        print(f"reject: {violation}")
    return EXIT_REJECT


def _cmd_verify(args) -> int:
    H, part, T = _read(args.instance, parse_instance)
    checks = [
        ("matching-partition", verify_matching_partition(H, part)),
        ("kempe", verify_kempe(H, part)),
    ]
    if T is not None:
        checks.append(("transversal", verify_transversal(part, T)))
    ok = True
    for name, verdict in checks:
        print(f"{name}: {'accept' if verdict else 'reject'}")
        for violation in verdict.violations:
            print(f"  {violation}")
        ok = ok and bool(verdict)
    return EXIT_OK if ok else EXIT_REJECT


def _cmd_oracle(args) -> int:
    H, part, T = _read(args.instance, parse_instance)
    if T is None:
        T = _default_transversal(part)
    budget = OracleBudget(max_edges=args.max_edges)
    bags = oracle_solve(H, T, budget)
    if bags is None:
        print("infeasible")
        return EXIT_REJECT
    print(emit_solution(bags), end="")
    return EXIT_OK


def _cmd_linegraph(args) -> int:
    H, _part, _T = _read(args.instance, parse_instance)
    Path(args.output).write_text(line_graph_to_dot(H), encoding="utf-8")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.generator == "circulant":
        H, part = gen_circulant(args.m, args.shifts)
    elif args.generator == "splice":
        ha, pa, _ = _read(args.a, parse_instance)
        hb, pb, _ = _read(args.b, parse_instance)
        H, part = splice((ha, pa), args.va, (hb, pb), args.vb)
    elif args.generator == "delete-vertex":
        h, p, _ = _read(args.instance, parse_instance)
        H, part = delete_vertex(h, p, args.vertex)
    else:
        H, part = k4_seed()
    Path(args.output).write_text(emit_instance(H, part), encoding="utf-8")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_corpus_run(args) -> int:
    directory = Path(args.dir)
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"no instance files in {directory}", file=sys.stderr)
        return EXIT_USAGE
    # the worst outcome sets the exit code: an internal assertion (3) wins
    # over a failed file (1), and the batch runs on after either
    code = EXIT_OK
    for path in files:
        # each line names its file once, so errors leave the path out
        try:
            H, part, T = _parse_file(path, parse_instance)
            ts = T if T is not None else _default_transversal(part)
            # solve validates the instance and verifies its own output
            bags, _trace = solve(H, part, ts)
            print(f"{path.name}: ok ({len(bags)} bags)")
        except InternalAssertionError as exc:
            code = EXIT_INTERNAL
            print(f"{path.name}: FAIL (internal assertion failed: {exc})")
        except KempeMinorError as exc:
            code = max(code, EXIT_REJECT)
            print(f"{path.name}: FAIL ({exc})")
        except OSError as exc:
            code = max(code, EXIT_REJECT)
            print(f"{path.name}: FAIL ({exc.strerror or exc})")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kempe-minors",
        description="Rooted complete minors in line graphs with a Kempe coloring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="check a solution against an instance")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-s", "--solution", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="verify partition, kempe property, transversal")
    p.add_argument("-i", "--instance", required=True)
    p.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("generate", help="generate an instance")
    gsub = gen.add_subparsers(dest="generator", required=True)
    p = gsub.add_parser("circulant")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--shifts", type=_shifts, required=True, help="comma-separated, e.g. 0,1,2"
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)
    p = gsub.add_parser("splice")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--va", required=True)
    p.add_argument("--vb", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)
    p = gsub.add_parser("delete-vertex")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)
    p = gsub.add_parser("k4")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="brute-force a small instance")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--max-edges", type=_positive, default=12)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("linegraph", help="export the line graph as DOT")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_linegraph)

    corpus = sub.add_parser("corpus", help="corpus orchestration")
    csub = corpus.add_subparsers(dest="corpus_command", required=True)
    p = csub.add_parser("run", help="solve and check every instance in a directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_corpus_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaViolationError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except InternalAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KempeMinorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECT


def entry() -> None:
    # messages name ids from the documents; escape what the locale cannot
    # encode, as Python already does on standard error
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entry()
