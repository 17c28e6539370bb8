"""Hamilton cycles and paths in pair unions: the definition the generator
certificates stand for.

A perfect 1-factorization has every pair union a Hamilton cycle, and a
vertex deletion of one has every pair union a Hamilton path.  The package
certifies both with the partition, class-size and Kempe checks; the
generator and acceptance tests check them against this.
"""

from kempe_minors.graph import edge_components


def _is_hamilton(H, union, size):
    """A Hamilton cycle (``size`` = |V|) or path (|V| - 1): ``size`` edges
    covering every vertex once or twice, in one edge component."""
    if len(union) != size:
        return False
    deg = {v: 0 for v in H.vertices}
    for eid in union:
        for v in H.edge(eid).ends:
            deg[v] += 1
    if any(d == 0 or d > 2 for d in deg.values()):
        return False
    return len(edge_components(H, union)) == 1


def pair_union_is_hamilton_cycle(H, A, B):
    return _is_hamilton(H, A | B, len(H.vertices))


def pair_union_is_hamilton_path(H, A, B):
    return _is_hamilton(H, A | B, len(H.vertices) - 1)
