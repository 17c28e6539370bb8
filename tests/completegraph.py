"""The simple complete graph K_n, which only the tests build."""

from itertools import combinations

from kempe_minors.graph import EdgeRecord, Multigraph


def complete_graph(n):
    """Simple complete graph on n vertices with edge ids like ``e00-01``."""
    width = len(str(max(n - 1, 0)))
    names = [f"{i:0{width}d}" for i in range(n)]
    edges = [
        EdgeRecord(f"e{u}-{v}", (u, v)) for u, v in combinations(names, 2)
    ]
    return Multigraph(names, edges)
