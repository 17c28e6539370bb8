"""The parallel branch peels every singleton class beside the parallel pair
in one step.

Each peeled edge meets every other edge, so it rejoins as its own bag.  The
one step gives the bags and the trace of peeling one class per recursion
level (``referenceparallel``), and it solves chains of singleton classes
longer than that recursion could follow.
"""

from itertools import chain, product

import pytest

from kempe_minors import solver
from kempe_minors.cli import EXIT_OK, main
from kempe_minors.coloring import MatchingPartition
from kempe_minors.graph import Multigraph, edge
from kempe_minors.serialization import emit_instance, parse_solution
from kempe_minors.solver import solve
from referenceparallel import reference_solve_with_parallel
from test_census import DRAWS, census
from test_exhaustive import instance, small_instances
from test_solver import parallel_cases, parallel_peel


def peel_chain(n):
    """``parallel_peel()`` with n singleton classes in place of e4's, each a
    copy of v2-v3 named after e4, in order; T is {e0, e1, e5, e6} plus the
    copies.  e5 and e6 miss each other, so every copy is peeled."""
    H, part = parallel_peel()
    copies = [f"e4-{i:03d}" for i in range(n)]
    edges = [e for e in H.edges() if e.id != "e4"]
    edges += [edge(c, "v2", "v3") for c in copies]
    classes = [c for c in part.classes if c != {"e4"}] + [{c} for c in copies]
    T = frozenset({"e0", "e1", "e5", "e6", *copies})
    return Multigraph(H.vertices, edges), MatchingPartition.of(classes), T, copies


def chain_bags(copies):
    """The bags of the chain without copies, then the copies in reverse."""
    H, part, T, _ = peel_chain(0)
    bags, _ = solve(H, part, T)
    return bags.bags + tuple(frozenset({c}) for c in reversed(copies))


def solve_peeling_per_level(monkeypatch, H, part, T):
    with monkeypatch.context() as m:
        m.setattr(solver, "_solve_with_parallel", reference_solve_with_parallel)
        return solve(H, part, T)


def sweep():
    for form in small_instances():
        H, part = instance(form)
        for T in product(*(sorted(c) for c in part.classes)):
            yield H, part, frozenset(T)


def census_draws():
    return chain.from_iterable(census(draw) for draw, _ in DRAWS)


@pytest.mark.parametrize(
    "instances, counts",
    [(sweep, (121, 30)), (census_draws, (248, 12))],
    ids=["five-vertex-sweep", "census"],
)
def test_one_step_peel_matches_the_recursion(monkeypatch, instances, counts):
    # counts: (parallel-branch solves, those that peel)
    solves = peeled = 0
    for H, part, T in instances():
        bags, trace = solve(H, part, T)
        if "parallel" not in trace.kinds():
            continue
        assert solve_peeling_per_level(monkeypatch, H, part, T) == (bags, trace), T
        solves += 1
        peeled += "peel-singleton" in parallel_cases(trace)
    assert (solves, peeled) == counts


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 30, 100, 300])
def test_peel_chain_matches_the_recursion(monkeypatch, n):
    H, part, T, copies = peel_chain(n)
    bags, trace = solve(H, part, T)
    assert solve_peeling_per_level(monkeypatch, H, part, T) == (bags, trace)
    assert bags.bags == chain_bags(copies)
    assert parallel_cases(trace) == ("peel-singleton",) * n + ("ell=2",)
    assert [s.details["edge"] for s in trace.steps[:n]] == copies


def test_long_chain_solves_in_one_step(monkeypatch):
    # peeling one class per recursion level overflows the stack here
    H, part, T, copies = peel_chain(600)
    calls = []
    solve_rec = solver._solve_rec

    def counting(*args):
        calls.append(len(args[1]))
        return solve_rec(*args)

    monkeypatch.setattr(solver, "_solve_rec", counting)
    bags, trace = solve(H, part, T)
    assert calls == [604]
    assert bags.bags == chain_bags(copies)
    assert parallel_cases(trace) == ("peel-singleton",) * 600 + ("ell=2",)


def test_long_chain_solves_through_the_cli(tmp_path):
    H, part, T, copies = peel_chain(600)
    inst, out = tmp_path / "chain.json", tmp_path / "solution.json"
    inst.write_text(emit_instance(H, part, T), encoding="utf-8")
    assert main(["solve", "-i", str(inst), "-o", str(out)]) == EXIT_OK
    assert parse_solution(out.read_text(encoding="utf-8")).bags == chain_bags(copies)
