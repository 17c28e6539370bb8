"""The line graph L(H) as an adjacency dict: the tests' independent oracle.

Nodes are the edge ids of H; two are adjacent when the edges are distinct
and share an end, so parallel edges are adjacent nodes.  The package never
builds L(H); the path tests check its answers against this.
"""


def line_graph(H):
    """Map each edge id of H to the frozenset of its neighbours in L(H)."""
    adj = {eid: set() for eid in H.edge_ids}
    for v in H.vertices:
        at = H.edges_at(v)
        for i, a in enumerate(at):
            for b in at[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    return {eid: frozenset(ns) for eid, ns in adj.items()}
