"""Benchmark of the kempe-minors solver, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py [--seed N] [--trace 1]     # every workload in turn

Workloads, metric names and units are declared in ``BENCHMARK.json``.  Each
workload is a closed loop with one caller that makes whole passes over the
inputs its seed generates.  Every op ends in ``verify_solution``.

``--trace 0`` builds the inputs at least three times and for at least two
CPU seconds (``setup_s`` is the median), then runs untimed warm-up ops and
as many whole passes as fit in ``--seconds`` (at least two) and reports the
end-to-end metrics.  Times are CPU time of this single-threaded process,
which leaves out time the host runs other tenants, scaled to a host of
fixed speed (see ``reference_loop``); an op's time is its median over the
passes.  ``op_ms_tail`` is the op latency at the highest whole percentile
with at least ten ops of a pass beyond it: p99 on corpus-sweep, p97 on
complete-endgame, p84 on size-ladder.  Raw CPU time, wall time and the
tail's percentile are kept in the result file.
``--trace 1`` runs one untraced and one traced pass and reports per-layer
self times and counts for the traced pass; counts repeat exactly for a
given seed.  Without ``--workload`` every workload runs in its own fresh
process, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the machine context goes to ``perfbench/out/``, and a traced run also writes
its spans there.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Builds repeat at least this often and this long; setup_s is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# The first tenth of the ops runs untimed before the timed passes, which
# are at least MIN_PASSES.
WARMUP_SHARE = 10
MIN_PASSES = 2
# On a shared host the CPU time of the same work moves by up to a factor of
# two from second to second, as neighbours load the other hyperthread and
# the caches.  A fixed pure-Python search, which slows with the solver, runs
# between ops once REF_EVERY CPU seconds of ops have passed, once for each
# REF_EVERY of them, and op times are scaled as if one search had taken
# REF_SECONDS (about what an unloaded 2-vCPU x86-64 VM gives).  Each search
# covers REF_GRAPH from each of REF_SOURCES; builds are scaled by
# SETUP_SEARCHES searches before and after them.
REF_SECONDS = 0.001
REF_EVERY = 0.02
SETUP_SEARCHES = 20
REF_ORDER = 300
REF_GRAPH = {
    v: ((v + 1) % REF_ORDER, (7 * v + 1) % REF_ORDER, (13 * v + 5) % REF_ORDER,
        (31 * v + 11) % REF_ORDER)
    for v in range(REF_ORDER)
}
REF_SOURCES = (0, 7, 42)

# Module attributes the tracer wraps: the names ``solver`` resolves at call
# time, ``edge_components`` wherever a traced layer calls it, and the
# document functions the size-ladder op calls.
TRACED = {
    "solver": (
        "solve",
        "verify_matching_partition",
        "verify_kempe",
        "verify_transversal",
        "line_graph",
        "disjoint_paths_or_separator",
        "edge_disjoint_paths",
        "split_sides",
        "contract",
        "verify_solution",
        "solve_complete",
        "assert_complete_fallback",
        "edge_components",
    ),
    "coloring": ("edge_components",),
    "paths": ("edge_components",),
    "serialization": ("parse_instance", "parse_solution", "emit_solution"),
}
VALIDATORS = (
    "coloring.verify_matching_partition",
    "coloring.verify_kempe",
    "coloring.verify_transversal",
)
SERIALIZERS = (
    "serialization.parse_instance",
    "serialization.parse_solution",
    "serialization.emit_solution",
)
STEP_KINDS = ("base", "parallel", "menger", "separator", "complete")
# Acceptance criterion 1 at seed 0: op count and trace shapes.
CRITERION_1 = (3409, {"menger": 3181, "separator>menger": 227, "complete": 1})


def load_package() -> None:
    """Import kempe_minors from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "kempe_minors" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kempe_minors sources under {src}")
    sys.path.insert(0, str(src))
    import kempe_minors

    if Path(kempe_minors.__file__).resolve().parent != src / "kempe_minors":
        sys.exit(f"perfbench: imported kempe_minors from {kempe_minors.__file__}")


def machine_context() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "llc_bytes": last_level_cache_bytes(),
    }


def last_level_cache_bytes() -> int | None:
    if sys.platform != "linux":
        return None
    try:
        sysconf = ctypes.CDLL(None).sysconf
    except (OSError, AttributeError):
        return None
    # glibc's _SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE
    for code in (197, 194, 191):
        size = sysconf(code)
        if size > 0:
            return size
    return None


def src_lines() -> int:
    return sum(
        p.read_bytes().count(b"\n") for p in (ROOT / "src" / "kempe_minors").rglob("*.py")
    )


def reference_loop(searches: int = 1) -> float:
    """Mean CPU seconds of a fixed breadth-first search: the host's speed.

    Like the solver it loops over dicts, lists, tuples and sets of small
    objects, so a loaded host slows both alike.
    """
    start = process_time()
    for source in REF_SOURCES * searches:
        parent = {source: None}
        queue = [source]
        for v in queue:
            for w in REF_GRAPH[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        paths = []
        for v in parent:
            path = []
            while v is not None:
                path.append(v)
                v = parent[v]
            paths.append(tuple(path))
        frozenset(x for path in paths for x in path)
    return (process_time() - start) / searches


def run_pass(ops, run_op, tracer=None, scaled=False) -> list[list]:
    """One closed-loop pass: [CPU seconds, verified, trace or None] per op.

    With ``scaled`` the reference loop runs before the first op, after the
    last and whenever REF_EVERY CPU seconds of ops have run since it last
    did, one search for each REF_EVERY seconds those ops took.  Each op's
    time is then multiplied by REF_SECONDS over the mean search time of the
    two reference runs around it.
    """
    results: list[list] = []
    before = reference_loop() if scaled else 0.0
    first, busy = 0, 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = process_time()
        try:
            ok, trace = run_op(op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, trace = False, None
        dt = process_time() - start
        results.append([dt, ok, trace if tracer else None])
        busy += dt
        if scaled and (busy >= REF_EVERY or i == len(ops) - 1):
            after = reference_loop(max(1, round(busy / REF_EVERY)))
            for row in results[first:]:
                row[0] *= 2 * REF_SECONDS / (before + after)
            before, first, busy = after, len(results), 0.0
    return results


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at most 99, that has ten of n ops beyond it."""
    return max((q for q in range(50, 100) if n - (n * q + 99) // 100 >= 10), default=50)


def percentile_ms(latencies: list[float], q: int) -> float:
    data = latencies if len(latencies) > 1 else latencies * 2
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1] * 1000


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    build, run_op = WORKLOADS[workload]
    setups: list[float] = []
    raw_setups: list[float] = []
    ops = None
    while len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_SECONDS:
        ops = None
        before = reference_loop(SETUP_SEARCHES)
        start = process_time()
        ops = build(seed, {})
        raw_setups.append(process_time() - start)
        after = reference_loop(SETUP_SEARCHES)
        setups.append(raw_setups[-1] * 2 * REF_SECONDS / (before + after))
    gc.collect()

    # An untimed warm-up, then whole passes for as long as the next one is
    # expected to end within ``seconds`` (at least MIN_PASSES).  Each op's
    # scaled time is its median over the passes, which drops what a burst of
    # load from outside the process adds to one pass and the scale misses.
    warmup = ops[: len(ops) // WARMUP_SHARE]
    failed = sum(1 for _, ok, _ in run_pass(warmup, run_op) if not ok)
    per_op: list[list[float]] = [[] for _ in ops]
    passes = 0
    start, start_cpu = perf_counter(), process_time()
    while True:
        for times, (dt, ok, _) in zip(per_op, run_pass(ops, run_op, scaled=True)):
            if ok:
                times.append(dt)
            else:
                failed += 1
        passes += 1
        elapsed = perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    wall, busy = perf_counter() - start, process_time() - start_cpu

    done = [(statistics.median(times), op.edges) for times, op in zip(per_op, ops) if times]
    if not done:
        sys.exit(f"perfbench: no {workload} op completed")
    latencies = [dt for dt, _ in done]
    pass_s = sum(latencies)
    n = len(latencies)
    tail = tail_percentile(n)
    metrics = {
        "ops_per_s": len(done) / pass_s,
        "edges_per_s": sum(e for _, e in done) / pass_s,
        "op_ms_p50": percentile_ms(latencies, 50),
        "op_ms_tail": percentile_ms(latencies, tail),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    checks = []
    if workload == "corpus-sweep" and seed == 0 and len(ops) != CRITERION_1[0]:
        checks.append(f"{len(ops)} ops per pass at seed 0, criterion 1 has {CRITERION_1[0]}")
    attempted = len(warmup) + passes * len(ops)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks_failed": checks,
        "notes": {
            "fail_ratio": failed / attempted,
            "passes": passes,
            "ops_per_pass": len(ops),
            "wall_s": wall,
            "cpu_s": busy,
            "latency_samples": n,
            "tail_percentile": tail,
            "samples_beyond": {f"p{q}": n - (n * q + 99) // 100 for q in (50, tail)},
            "scaled_cpu_s": sum(sum(times) for times in per_op),
            "setups_s": setups,
            "raw_setups_s": raw_setups,
        },
    }


def install_tracer():
    from kempe_minors import coloring, paths, serialization, solver

    from tracer import Tracer

    def add(key, count):
        return lambda counts, args, result: counts.update({key: count(args, result)})

    hooks = {
        "coloring.verify_kempe": add("kempe_pairs", lambda a, r: a[1].k * (a[1].k - 1) // 2),
        "graph.line_graph": add("line_graph_adjacencies", lambda a, r: r.num_adjacencies()),
        "paths.disjoint_paths_or_separator": lambda counts, a, r: counts.update(
            {"flow_value": len(r), "flow_separators": int(isinstance(r, paths.Separator))}
        ),
        "serialization.parse_instance": add("doc_bytes", lambda a, r: len(a[0])),
        "serialization.parse_solution": add("doc_bytes", lambda a, r: len(a[0])),
        "serialization.emit_solution": add("doc_bytes", lambda a, r: len(r)),
    }
    modules = {"solver": solver, "coloring": coloring, "paths": paths,
               "serialization": serialization}
    tracer = Tracer()
    for module, attrs in TRACED.items():
        for attr in attrs:
            tracer.wrap(modules[module], attr, hooks)
    return tracer


def per_layer(workload: str, seed: int) -> dict:
    from workloads import WORKLOADS

    build, run_op = WORKLOADS[workload]
    phases: dict[str, float] = {}
    ops = build(seed, phases)
    gc.collect()
    start = process_time()
    plain = run_pass(ops, run_op)
    untraced = process_time() - start

    tracer = install_tracer()
    try:
        start = process_time()
        results = run_pass(ops, run_op, tracer)
        traced = process_time() - start
    finally:
        tracer.close()

    sec, calls = tracer.self_times()
    counts = tracer.counts
    steps: Counter = Counter()
    shapes: Counter = Counter()
    depth = 0
    for _, _, trace in results:
        if trace is not None:
            steps.update(trace.kinds())
            shapes[">".join(trace.kinds())] += 1
            depth = max(depth, len(trace.steps))
    metrics = {
        "coloring.validate_s": sum(sec[n] for n in VALIDATORS),
        "coloring.validate_calls": sum(calls[n] for n in VALIDATORS),
        "coloring.kempe_pairs": counts["kempe_pairs"],
        "graph.edge_components_s": sec["graph.edge_components"],
        "graph.edge_components_calls": calls["graph.edge_components"],
        "graph.line_graph_s": sec["graph.line_graph"],
        "graph.line_graph_calls": calls["graph.line_graph"],
        "graph.line_graph_adjacencies": counts["line_graph_adjacencies"],
        "graph.contract_s": sec["graph.contract"],
        "graph.contract_calls": calls["graph.contract"],
        "paths.flow_s": sec["paths.disjoint_paths_or_separator"],
        "paths.flow_calls": calls["paths.disjoint_paths_or_separator"],
        "paths.flow_separators": counts["flow_separators"],
        "paths.flow_value": counts["flow_value"],
        "paths.lift_s": sec["paths.edge_disjoint_paths"],
        "paths.lift_calls": calls["paths.edge_disjoint_paths"],
        "paths.split_s": sec["paths.split_sides"],
        "paths.split_calls": calls["paths.split_sides"],
        "solver.self_s": sec["solver.solve"],
        "solver.verify_s": sec["solver.verify_solution"],
        "solver.verify_calls": calls["solver.verify_solution"],
        "solver.complete_s": sec["solver.solve_complete"],
        "solver.fallback_s": sec["solver.assert_complete_fallback"],
        **{f"solver.steps.{kind}": steps[kind] for kind in STEP_KINDS},
        "solver.depth_max": depth,
        "serialization.parse_s": sec["serialization.parse_instance"]
        + sec["serialization.parse_solution"],
        "serialization.emit_s": sec["serialization.emit_solution"],
        "serialization.doc_bytes": counts["doc_bytes"],
        "generators.build_s": phases.get("generators.build_s", 0.0),
        "corpus.sample_s": phases.get("corpus.sample_s", 0.0),
        "trace.overhead_ratio": traced / untraced,
        "src.lines": src_lines(),
    }

    # Each workload must bypass what it claims to bypass.
    checks = []
    if workload == "corpus-sweep" and seed == 0:
        if (len(results), dict(shapes)) != CRITERION_1:
            checks.append(f"seed 0 gave {len(results)} ops shaped {dict(shapes)}, "
                          f"criterion 1 has {CRITERION_1}")
    if workload == "complete-endgame":
        for name in ("paths.disjoint_paths_or_separator", "graph.line_graph"):
            if calls[name]:
                checks.append(f"{name} called {calls[name]} times")
        if set(shapes) != {"complete"}:
            checks.append(f"trace shapes {dict(shapes)}, expected only complete")
    if workload == "size-ladder":
        if calls["serialization.parse_instance"] != len(results):
            checks.append("not every op parsed its instance document")
    elif any(calls[n] for n in SERIALIZERS):
        checks.append("serialization called outside size-ladder")

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{workload}-seed{seed}.spans.jsonl.gz")
    both = plain + results
    failed = sum(1 for _, ok, _ in both if not ok)
    return {
        "metrics": metrics,
        "attempted": len(both),
        "failed": failed,
        "checks_failed": checks,
        "notes": {
            "fail_ratio": failed / len(both),
            "ops_per_pass": len(ops),
            "untraced_s": untraced,
            "traced_s": traced,
            "spans": len(tracer.spans),
            "absent": tracer.absent,
            "shapes": dict(shapes),
        },
    }


def run_workload(spec: dict, args) -> int:
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: workload {args.workload!r} has no builder")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        out = per_layer(args.workload, args.seed)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    metrics = out["metrics"]
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "are computed or declared but not both")
    correct = out["failed"] == 0 and not out["checks_failed"]
    context = machine_context()

    for name, value in metrics.items():
        print(f"{args.workload:<17} {name:<30} {value:>14.6g} {units[name]}")
    for key, value in out["notes"].items():
        print(f"{args.workload:<17} {key:<30} {value}")
    print(f"{args.workload:<17} {'context':<30} {context}")
    for problem in out["checks_failed"]:
        print(f"perfbench: self-check failed: {problem}", file=sys.stderr)
    if out["notes"].get("absent"):
        print(f"perfbench: absent from the package: {out['notes']['absent']}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "checks_failed": out["checks_failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "notes": out["notes"],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(spec: dict, args) -> int:
    """Each workload in a fresh process, one after another; one combined result."""
    load_package()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: no {spec_path}")
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(spec, args)
    return run_workload(spec, args)


if __name__ == "__main__":
    sys.exit(main())
