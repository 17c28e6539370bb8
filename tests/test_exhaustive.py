"""Every small Kempe instance, not a sample.

The census solves seeded random draws.  This sweep takes every instance on
five vertices with at most twelve edges (the oracle's default cap), up to
vertex relabelling: every multiset of k >= 3 nonempty matchings of K_5
whose pairwise unions are connected and which together cover all five
vertices.  Parallel edges arise from two classes sharing a vertex pair.  It
solves every transversal and cross-checks each one with the brute-force
oracle.
"""

from collections import Counter
from itertools import combinations, permutations, product

from kempe_minors.coloring import MatchingPartition, verify_kempe
from kempe_minors.graph import Multigraph, edge
from kempe_minors.oracle import oracle_solve
from kempe_minors.solver import solve, verify_solution

N = 5
MAX_EDGES = 12
PAIRS = list(combinations(range(N), 2))
# the nonempty matchings of K_5, each a sorted tuple of vertex pairs
MATCHINGS = [
    m
    for r in (1, 2)
    for m in combinations(PAIRS, r)
    if len({x for pair in m for x in pair}) == 2 * r
]
INDEX = {m: i for i, m in enumerate(MATCHINGS)}
# per vertex permutation, where it sends each matching, by index
RELABEL = [
    [INDEX[tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in m))] for m in MATCHINGS]
    for p in permutations(range(N))
]


def instance(classes):
    """The instance whose classes are the given matchings, by index; edges
    are numbered in class order."""
    edges, ids = [], []
    for i in classes:
        ids.append([])
        for u, v in MATCHINGS[i]:
            ids[-1].append(f"e{len(edges)}")
            edges.append(edge(ids[-1][-1], str(u), str(v)))
    return Multigraph([str(v) for v in range(N)], edges), MatchingPartition.of(ids)


def small_instances():
    """The canonical form of every instance in the sweep, in sorted order.

    A form is the sorted tuple of class indices, least over the 120
    relabellings.  Classes are added in index order, and only when their
    union with every earlier class is connected (checked by
    ``verify_kempe`` on the pair), so every Kempe multiset is built once.
    """
    kempe = [
        [bool(verify_kempe(*instance((a, b)))) for b in range(len(MATCHINGS))]
        for a in range(len(MATCHINGS))
    ]
    found = set()

    def extend(classes, start, size):
        covered = {x for i in classes for pair in MATCHINGS[i] for x in pair}
        if len(classes) >= 3 and len(covered) == N:
            found.add(min(tuple(sorted(r[i] for i in classes)) for r in RELABEL))
        for i in range(start, len(MATCHINGS)):
            if size + len(MATCHINGS[i]) <= MAX_EDGES and all(
                kempe[c][i] for c in classes
            ):
                extend(classes + [i], i, size + len(MATCHINGS[i]))

    extend([], 0, 0)
    return sorted(found)


def test_every_small_instance_against_the_oracle():
    kinds = Counter()
    cases = Counter()
    solves = 0
    forms = small_instances()
    for form in forms:
        H, part = instance(form)
        assert verify_kempe(H, part), form
        for T in map(frozenset, product(*(sorted(c) for c in part.classes))):
            bags, trace = solve(H, part, T)
            solves += 1
            kinds.update(trace.kinds())
            cases.update(s.details["case"] for s in trace.steps if s.kind == "parallel")
            witness = oracle_solve(H, T)
            assert witness is not None, (form, sorted(T))
            verdict = verify_solution(H, part, T, witness)
            assert verdict, verdict.violations
    assert (len(forms), solves) == (73, 221)
    # k >= 3, and a peel leaves k - 1 >= 3 here, so no step is a base case
    assert kinds == {"parallel": 202, "menger": 66, "complete": 34, "separator": 5}
    assert cases == {
        "pairwise-incident-T": 84,
        "peel-singleton": 81,
        "ell=3": 30,
        "ell=2": 7,
    }
