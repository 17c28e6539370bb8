"""A seeded census of general Kempe instances.

Every generator in the package builds perfect 1-factorizations or vertex
deletions of them, which reach only the menger and separator>menger shapes.
The paper's theorem covers every Kempe edge coloring of every multigraph,
so this census draws small random multigraphs (parallel edges allowed),
enumerates their proper edge colorings, keeps the Kempe ones and solves
every transversal.  The draw is fixed by its seed and trial count.
"""

import random
from collections import Counter
from itertools import product

from kempe_minors.coloring import MatchingPartition, verify_kempe
from kempe_minors.graph import Multigraph, contract, edge
from kempe_minors.oracle import oracle_solve
from kempe_minors.solver import solve, verify_solution

SEED = 0
TRIALS = 1000
MAX_COLORINGS = 20  # per graph


def random_multigraph(rng):
    """3-6 vertices and 3-10 edges between random distinct pairs, within the
    oracle's default edge cap."""
    n = rng.randint(3, 6)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(rng.randint(3, 10)):
        u, v = sorted(rng.sample(verts, 2))
        edges.append(edge(f"e{i}", u, v))
    return Multigraph(verts, edges)


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


def census():
    """Yield (H, part, T) for every transversal of every Kempe coloring drawn."""
    rng = random.Random(SEED)
    for _ in range(TRIALS):
        H = random_multigraph(rng)
        for k in range(2, 6):
            for part in colorings(H, k, MAX_COLORINGS):
                if verify_kempe(H, part):
                    for T in product(*(sorted(c) for c in part.classes)):
                        yield H, part, frozenset(T)


def test_census_reaches_every_branch_and_keeps_the_far_side_kempe():
    kinds = Counter()
    solves = chains = 0
    for H, part, T in census():
        bags, trace = solve(H, part, T)
        assert verify_solution(H, part, T, bags)
        solves += 1
        kinds.update(trace.kinds())
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


def test_oracle_solves_every_census_transversal():
    # the brute force shares nothing with the construction, so it is an
    # independent witness that every census prescription is feasible; it
    # rejects an instance over its edge cap rather than skip it
    for H, part, T in census():
        bags = oracle_solve(H, T)
        assert bags is not None, sorted(T)
        verdict = verify_solution(H, part, T, bags)
        assert verdict, verdict.violations
