"""assert_complete_fallback as it was before it read H's recorded degrees:
the tests' reference.

The package's check reads the set of degrees H recorded when built and
leaves adjacency to the checks that imply it; this is the check it
replaced, which took each covered vertex's degree and then tested every
pair of covered vertices for an edge.  It is kept so the tests can compare
outcomes and messages on the same inputs.
"""

from itertools import combinations

from kempe_minors.solver import _require


def reference_complete_fallback(H, k):
    verts = sorted(H.covered_vertices())
    degs = {v: H.degree(v) for v in verts}
    delta = max(degs.values(), default=0)
    _require(delta < k, "a vertex of full degree is present")
    _require(H.is_simple(), "parallel edges present in the fallback")
    _require(delta == k - 1, f"maximum degree {delta} is not k-1")
    _require(len(verts) == delta + 1, f"{len(verts)} covered vertices, need {delta + 1}")
    _require(all(d == delta for d in degs.values()), "degrees are not uniform")
    adjacent = {e.ends for e in H.edges()}
    for u, v in combinations(verts, 2):
        _require((u, v) in adjacent, f"vertices {u!r},{v!r} are not adjacent")
