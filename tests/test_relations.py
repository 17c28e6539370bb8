"""Relations between solves that need no oracle.

Each relation says how the output must change when the input is renamed
or reordered, so it holds at any size, not only where a digest or the
oracle pins the answer.  The inputs are 10 transversals of every corpus
instance and every transversal of both census draws.
"""

from functools import cache
from itertools import chain, zip_longest

import pytest

from kempe_minors.coloring import MatchingPartition
from kempe_minors.corpus import sample_transversals, standard_corpus
from kempe_minors.graph import Multigraph, edge
from kempe_minors.solver import solve, verify_solution
from test_census import DRAWS, census


@cache
def instances():
    """[(H, part, [T, ...])], one entry per (H, partition) pair."""
    out = [
        (H, part, sample_transversals(part, 10, seed=0))
        for _, (H, part) in standard_corpus()
    ]
    for H, part, T in chain.from_iterable(census(draw) for draw, _ in DRAWS):
        if out[-1][0] is H and out[-1][1] is part:
            out[-1][2].append(T)
        else:
            out.append((H, part, [T]))
    return out


def outcome(H, part, T):
    bags, trace = solve(H, part, T)
    return bags.bags, trace.kinds()


@cache
def grouped():
    """Each instance's outcomes, its transversals solved one after another."""
    return [[outcome(H, part, T) for T in ts] for H, part, ts in instances()]


def prefixed(H, prefix):
    """H with every vertex renamed prefix + name; string order is kept."""
    return Multigraph(
        [prefix + v for v in H.vertices],
        [edge(e.id, prefix + e.ends[0], prefix + e.ends[1]) for e in H.edges()],
    )


def reversed_names(names, prefix):
    """Each name mapped to prefix + a zero-padded number, so that the
    string order of the new names is the reverse of the old."""
    names = sorted(names)
    return {x: f"{prefix}{len(names) - 1 - i:06d}" for i, x in enumerate(names)}


def separator_sets(trace):
    return [s.details["separator"] for s in trace.steps if s.kind == "separator"]


def test_inputs():
    # 10 transversals of each corpus instance, fewer where it has fewer
    assert len(instances()) > 70
    assert sum(len(ts) for _, _, ts in instances()) == 689 + sum(n for _, n in DRAWS)


def test_r0_call_order_changes_nothing():
    # round-robin over instances: consecutive calls are on different pairs
    # and miss the solver's memo, where the grouped order hits it for all
    # but each pair's first call
    want = grouped()
    rows = [[(i, j) for j in range(len(ts))] for i, (_, _, ts) in enumerate(instances())]
    for cell in chain.from_iterable(zip_longest(*rows)):
        if cell is None:
            continue
        i, j = cell
        H, part, ts = instances()[i]
        assert outcome(H, part, ts[j]) == want[i][j], (i, sorted(ts[j]))


@pytest.mark.parametrize("prefix", ["a", "w", "x"])
def test_r1_order_preserving_vertex_renaming(prefix):
    # "w" puts every vertex after contract's fresh vertex "w"
    for (H, part, ts), want in zip(instances(), grouped()):
        renamed = prefixed(H, prefix)
        for T, expected in zip(ts, want):
            assert outcome(renamed, part, T) == expected, sorted(T)


def test_r3_reversed_class_order():
    for (H, part, ts), want in zip(instances(), grouped()):
        reversed_part = MatchingPartition.of(reversed(part.classes))
        for T, (bags, _) in zip(ts, want):
            got, _ = outcome(H, reversed_part, T)
            assert set(got) == set(bags), sorted(T)


def test_r2_order_reversing_edge_renaming():
    # paths follow arc order, so the bags may differ; the minimum cut read
    # from the residual reach does not depend on the search order
    separators = 0
    for (H, part, ts), want in zip(instances(), grouped()):
        new = reversed_names(H.edge_ids, "r")
        old = {r: eid for eid, r in new.items()}
        renamed = Multigraph(H.vertices, [edge(new[e.id], *e.ends) for e in H.edges()])
        renamed_part = MatchingPartition.of({new[e] for e in c} for c in part.classes)
        for T, (_, kinds) in zip(ts, want):
            _, trace = solve(renamed, renamed_part, {new[e] for e in T})
            assert trace.kinds() == kinds, sorted(T)
            got = [{old[r] for r in S} for S in separator_sets(trace)]
            assert got == separator_sets(solve(H, part, T)[1]), sorted(T)
            separators += len(got)
    assert separators == 168  # 56 of them on the corpus


def test_r4_order_reversing_vertex_renaming():
    # the pivot is the least vertex of degree k, so the trace kinds may
    # change; validity is the only relation
    for H, part, ts in instances():
        new = reversed_names(H.vertices, "v")
        renamed = Multigraph(
            new.values(),
            [edge(e.id, new[e.ends[0]], new[e.ends[1]]) for e in H.edges()],
        )
        for T in ts:
            bags, _ = solve(renamed, part, T)
            verdict = verify_solution(renamed, part, T, bags)
            assert verdict, (sorted(T), verdict.violations)
