"""A seeded census of general Kempe instances.

Every generator in the package builds perfect 1-factorizations or vertex
deletions of them, which reach only the menger and separator>menger shapes.
The paper's theorem covers every Kempe edge coloring of every multigraph,
so this census draws small random multigraphs (parallel edges allowed),
enumerates their proper edge colorings, keeps the Kempe ones and solves
every transversal.  Each draw is fixed by its seed and trial count.
"""

import random
from collections import Counter
from itertools import chain, product

from kempe_minors.coloring import MatchingPartition, verify_kempe
from kempe_minors.graph import Multigraph, contract, edge
from kempe_minors.oracle import oracle_solve
from kempe_minors.solver import solve, verify_solution

# Each draw: (seed, trials, vertex count range, edge count range, class
# counts, colorings per graph at most), and the transversals it yields.
# Both stay within the oracle's default 12-edge cap.  The first draw
# reaches every step kind; the second, wider one reaches the parallel
# branch's peel-singleton and ell=3 cases, which the first misses.
DRAWS = (
    ((0, 1000, (3, 6), (3, 10), range(2, 6), 20), 518),
    ((0, 1000, (4, 8), (6, 12), range(2, 7), 20), 420),
)
PARALLEL_CASES = {"pairwise-incident-T", "peel-singleton", "ell=2", "ell=3"}


def random_multigraph(rng, vertices, edges):
    """A vertex count and an edge count drawn from the given ranges, and
    each edge between a random distinct pair."""
    n = rng.randint(*vertices)
    verts = [f"v{i}" for i in range(n)]
    out = []
    for i in range(rng.randint(*edges)):
        u, v = sorted(rng.sample(verts, 2))
        out.append(edge(f"e{i}", u, v))
    return Multigraph(verts, out)


def colorings(H, k, limit):
    """Up to ``limit`` partitions of E(H) into k nonempty matchings.

    Classes are numbered by first use, so no partition comes twice.
    """
    eids = H.edge_ids
    found = []
    classes = []  # per class: (edge ids, covered vertices)

    def extend(i):
        if len(found) == limit:
            return
        if i == len(eids):
            if len(classes) == k:
                found.append(MatchingPartition.of(ids for ids, _ in classes))
            return
        if len(classes) + len(eids) - i < k:
            return
        ends = set(H.edge(eids[i]).ends)
        for ids, cov in classes:
            if not (ends & cov):
                ids.append(eids[i])
                cov |= ends
                extend(i + 1)
                ids.pop()
                cov -= ends
        if len(classes) < k:
            classes.append(([eids[i]], set(ends)))
            extend(i + 1)
            classes.pop()

    extend(0)
    return found


def census(draw):
    """Yield (H, part, T) for every transversal of every Kempe coloring drawn."""
    seed, trials, vertices, edges, ks, max_colorings = draw
    rng = random.Random(seed)
    for _ in range(trials):
        H = random_multigraph(rng, vertices, edges)
        for k in ks:
            for part in colorings(H, k, max_colorings):
                if verify_kempe(H, part):
                    for T in product(*(sorted(c) for c in part.classes)):
                        yield H, part, frozenset(T)


def test_census_reaches_every_branch_and_keeps_the_far_side_kempe():
    kinds = Counter()
    cases = Counter()
    solves = chains = 0
    for H, part, T in chain.from_iterable(census(draw) for draw, _ in DRAWS):
        bags, trace = solve(H, part, T)
        assert verify_solution(H, part, T, bags)
        solves += 1
        kinds.update(trace.kinds())
        cases.update(s.details["case"] for s in trace.steps if s.kind == "parallel")
        chains = max(chains, trace.kinds().count("separator"))
        first = trace.steps[0]
        if first.kind == "separator":
            # the contraction lemma: contracting the star side leaves the
            # restricted classes a Kempe coloring of the far side
            side_c = first.details["side_c"]
            H_far, _ = contract(H, side_c)
            far = MatchingPartition.of(c - side_c for c in part.classes)
            verdict = verify_kempe(H_far, far)
            assert verdict, verdict.violations
    assert set(kinds) == {"base", "parallel", "menger", "separator", "complete"}, kinds
    assert chains >= 2, f"longest separator chain {chains} in {solves} solves"
    assert set(cases) == PARALLEL_CASES, cases


def test_oracle_solves_every_census_transversal():
    # the brute force shares nothing with the construction, so it is an
    # independent witness that every census prescription is feasible; it
    # rejects an instance over its edge cap rather than skip it; the count
    # per draw shows a later cut in a draw
    checked = []
    for draw, _ in DRAWS:
        checked.append(0)
        for H, part, T in census(draw):
            bags = oracle_solve(H, T)
            assert bags is not None, sorted(T)
            verdict = verify_solution(H, part, T, bags)
            assert verdict, verdict.violations
            checked[-1] += 1
    assert checked == [count for _, count in DRAWS]
