"""The Menger flow on the full vertex-edge incidence network of H: the tests'
reference for the package's flow.

Here every edge of H is an in-node and an out-node joined by a unit arc,
and every vertex a hub, so the network has 2m + n nodes and 10m arcs and
depends on H alone.  The package gives only the edges of U and T such a
node pair and caps every other edge by an undirected unit arc pair between
its two hubs.  Both encode the same problem: vertex-disjoint U,T-paths of
L(H).  So they must give the same flow value and, below k, the same
minimum separator, the one nearest U, which every maximum flow shares.
The flow here is ``referenceflow.reference_max_flow``, one shortest path
per search, so nothing below runs the package's flow code.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from kempe_minors.graph import EdgeId, Multigraph, number_ends
from kempe_minors.paths import PathSystem, Separator
from referenceflow import reference_max_flow

_INF = 1 << 30


def incidence_network(H: Multigraph) -> tuple[list[list[int]], list[int], list[int]]:
    """``(out, head, cap)`` of H's incidence network.

    Edge i of ``H.edge_ids`` is in_i = 2i and out_i = 2i+1, and H's vertex
    number x is the hub 2m + x.  Arcs come in pairs ``j, j ^ 1``, each with
    an even id and an empty reverse: first in_i -> out_i of capacity one for
    every i, then per edge and per end, first end first, out_i -> hub and
    hub -> in_i, uncapacitated.  Every node lists its arcs in id order.
    """
    ends = number_ends(H, H.edge_ids)
    m = len(ends)
    out: list[list[int]] = [[] for _ in range(2 * m + len(H.vertices))]
    head: list[int] = []
    cap: list[int] = []

    def add(a: int, b: int, c: int) -> None:
        out[a].append(len(head))
        out[b].append(len(head) + 1)
        head.extend((b, a))
        cap.extend((c, 0))

    for i in range(m):
        add(2 * i, 2 * i + 1, 1)
    for i, pair in enumerate(ends):
        for x in pair:
            add(2 * i + 1, 2 * m + x, _INF)
            add(2 * m + x, 2 * i, _INF)
    return out, head, cap


def incidence_peel(
    out: list[Sequence[int]],
    head: list[int],
    cap: list[int],
    starts: list[int],
    ends: set[int],
) -> list[list[int]]:
    """The flow as start-end arc paths, one per start that sends a unit.

    Every arc was built with an even id and an empty reverse, so the flow
    on an even arc j is ``cap[j ^ 1]`` and an odd arc carries none.  A walk
    that returns to a node splices out the loop, so every path is simple.
    """
    paths: list[list[int]] = []
    for s in starts:
        if not any(cap[j ^ 1] for j in out[s] if not j & 1):
            continue
        nodes, arcs = [s], []
        while nodes[-1] not in ends:
            j = next(j for j in out[nodes[-1]] if not j & 1 and cap[j ^ 1])
            cap[j ^ 1] -= 1
            x = head[j]
            if x in nodes:
                i = nodes.index(x)
                del nodes[i + 1:]
                del arcs[i:]
            else:
                nodes.append(x)
                arcs.append(j)
        paths.append(arcs)
    return paths


def incidence_paths_or_separator(
    H: Multigraph, U: Iterable[EdgeId], T: Iterable[EdgeId], k: int
) -> Union[PathSystem, Separator]:
    """k vertex-disjoint U,T-paths of L(H), each cut at its first T-edge, or
    the minimum separator nearest U with the flow's paths, each cut at its
    first separator edge.  The separator is every edge whose in-node the
    last search reached and whose out-node it did not."""
    us, ts = frozenset(U), frozenset(T)
    eids = H.edge_ids
    m = len(eids)
    index = {eid: i for i, eid in enumerate(eids)}
    out, head, cap = incidence_network(H)
    starts = [2 * index[u] for u in sorted(us)]
    ends = {2 * index[t] + 1 for t in ts}
    flow, mark = reference_max_flow(out, head, cap, starts, ends, k)
    stop = ts if flow == k else frozenset(
        eids[i] for i in range(m) if mark[2 * i] != -1 and mark[2 * i + 1] == -1
    )
    paths = []
    for arcs in incidence_peel(out, head, cap, starts, ends):
        seq = [eids[j >> 1] for j in arcs if j < 2 * m]
        first = next(i for i, eid in enumerate(seq) if eid in stop)
        paths.append(tuple(seq[: first + 1]))
    if flow == k:
        return PathSystem(tuple(paths))
    return Separator(stop, tuple(paths))
