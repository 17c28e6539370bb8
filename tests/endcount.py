"""Pair-subgraph end counting: the reference identity the degree analysis
rests on.

For a vertex of degree d in a valid partition of order k, the number of
class pairs whose two-class subgraph ends at it is d*(k-d).  The package
does not need the count; the coloring and acceptance tests check the
identity with it.
"""

from itertools import combinations


def pair_subgraph_ends(H, part, i, j):
    """End vertices of the subgraph formed by classes ``i`` and ``j``.

    A vertex is an end when it is covered by exactly one edge of the union;
    the union of two matchings is a disjoint union of paths and cycles, so
    each connected piece ends in two or zero vertices.
    """
    deg = {}
    for eid in part.classes[i] | part.classes[j]:
        for v in H.edge(eid).ends:
            deg[v] = deg.get(v, 0) + 1
    return frozenset(v for v, d in deg.items() if d == 1)


def pair_end_count(H, part, v):
    """Number of class pairs whose two-class subgraph ends at ``v``."""
    return sum(
        v in pair_subgraph_ends(H, part, i, j)
        for i, j in combinations(range(part.k), 2)
    )
