"""The Menger flow: vertex-disjoint paths or a minimum separator in L(H).

The path finder runs one unit-capacity flow, a search forest per round,
then one path decomposition, in a deterministic (ascending id) search
order.  L(H) itself is never built: vertex-disjoint paths in L(H) are the
paths of the vertex-edge incidence network of H that share no edge node,
where each edge node has capacity one and each vertex is an uncapacitated
hub standing in for the clique that L(H) has at it.  The minimum
separators of the two coincide and are read off the last search's reach;
the flow's own paths, one through each separator edge, come with them.

The network is two plain lists, ``out`` and ``head`` (see ``network``);
a call's flow is a third, ``cap``, and the flow on an arc is read from its
reverse arc.  The network has no source or sink: U enters the flow as its
start nodes and T as its end nodes.  So the network depends on H alone and
no call writes to it: a caller may build it once and pass it to every call
on H, from any thread.  The module keeps no state.  The arc ids and each
node's arc order fix the search order, hence every path, separator and bag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import InvalidInputError
from .graph import EdgeId, Multigraph, number_ends


@dataclass(frozen=True)
class PathSystem:
    """Pairwise vertex-disjoint paths of L(H).

    Each path is a sequence of edge ids of H, consecutive ones sharing an
    end; no edge id occurs twice in the system.
    """

    paths: tuple[tuple[EdgeId, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class Separator:
    """A node set whose removal disconnects the declared sides.

    ``paths`` are the maximum flow's disjoint paths, one per node: each
    runs from a U-edge to its own separator edge and meets no other.
    """

    nodes: frozenset[EdgeId]
    paths: tuple[tuple[EdgeId, ...], ...]

    def __len__(self) -> int:
        return len(self.nodes)


_INF = 1 << 30


def network(H: Multigraph) -> tuple[list[Sequence[int]], list[int], dict[EdgeId, int]]:
    """The vertex-edge incidence network of H.

    Returns ``(out, head, index)``: the network and each edge id's
    position.  ``head[j]`` is the end of arc ``j``, ``j ^ 1`` its
    reverse, ``out[x]`` node x's arcs in search order.

    Nodes: edge i of ``H.edge_ids`` is in_i = 2i and out_i = 2i+1, and the
    hub of H's vertex number x (``graph.number_ends``) is 2m + x.  Arcs, in
    id order, each with an even id and an empty reverse:

    - ``2i``, ``2i+1``: in_i -> out_i of capacity 1, and its reverse; a
      minimum cut therefore consists of these arcs;
    - from ``j = 2m + 8i``, four per end of edge i, first end first:
      out_i -> hub, its reverse, hub -> in_i, its reverse, uncapacitated.

    Every node lists its arcs in ascending id order: ``out[2i]`` is the
    tuple ``(2i, j+3, j+7)``, ``out[2i+1]`` the tuple ``(2i+1, j, j+4)``,
    and each hub's list gets ``j+1, j+2`` or ``j+5, j+6`` per incident
    edge, in edge order.  The arcs are filled by list operations, not arc
    by arc.
    """
    ends = number_ends(H, H.edge_ids)
    m = len(ends)
    first = [2 * m + x for x, _ in ends]
    second = [2 * m + y for _, y in ends]
    ins = range(0, 2 * m, 2)
    outs = range(1, 2 * m, 2)
    js = range(2 * m, 10 * m, 8)
    head = [0] * (10 * m)
    head[0 : 2 * m : 2] = outs
    head[1 : 2 * m : 2] = ins
    columns = (first, outs, ins, first, second, outs, ins, second)
    for offset, column in enumerate(columns):
        head[2 * m + offset :: 8] = column
    out = [
        arcs for x, j in zip(ins, js) for arcs in ((x, j + 3, j + 7), (x + 1, j, j + 4))
    ]
    out += [[] for _ in H.vertices]
    for j, a, b in zip(js, first, second):
        out[a] += (j + 1, j + 2)
        out[b] += (j + 5, j + 6)
    index = {eid: i for i, eid in enumerate(H.edge_ids)}
    return out, head, index


def _max_flow(
    out: list[Sequence[int]],
    head: list[int],
    cap: list[int],
    starts: list[int],
    ends: set[int],
    k: int,
) -> tuple[int, list[int]]:
    """Augment a search forest per round until k units flow or none is left.

    A round is one breadth-first search from the starts, in the order given.
    Each node joins the tree of the start that reached it first, and a tree
    stops at its first end node, so no unit leaves an end node.  The trees
    share no node, so the round augments every tree that reached an end, in
    that order, up to k units.  Returns the flow value and the last search's
    marks: below k, that search reached no end, and its marked nodes
    (``mark[x] != -1``) are the start side of a minimum cut.
    """
    flow = 0
    while True:
        # mark[x] is the arc that reached x, -2 at a start, -1 if unreached
        mark = [-1] * len(out)
        tree = mark.copy()  # tree[x] is the start whose tree x joined
        for x in starts:
            mark[x], tree[x] = -2, x
        reached: dict[int, int] = {}  # tree -> the end it stopped at
        queue = list(starts)
        for x in queue:
            t = tree[x]
            if x in ends:
                reached.setdefault(t, x)
            if t in reached:
                continue
            for j in out[x]:
                if cap[j]:
                    b = head[j]
                    if mark[b] == -1:
                        mark[b], tree[b] = j, t
                        queue.append(b)
        for x in list(reached.values())[: k - flow]:
            while mark[x] != -2:
                j = mark[x]
                cap[j] -= 1
                cap[j ^ 1] += 1
                x = head[j ^ 1]
            flow += 1
        if flow == k or not reached:
            return flow, mark


def _peel(
    out: list[Sequence[int]],
    head: list[int],
    cap: list[int],
    starts: list[int],
    ends: set[int],
) -> list[list[int]]:
    """Peel the flow into start-end paths, as arc lists, one per start that
    sends a unit, in the order of ``starts``.

    Every arc was built with an even id and an empty reverse, and
    augmenting keeps ``cap[j] + cap[j ^ 1]`` fixed, so the flow on an even
    arc j is ``cap[j ^ 1]`` and an odd arc carries none.  A start sends at
    most one unit and none enters it; a walk ends at the first end node it
    reaches, which no unit leaves.  Each step consumes one unit.  A walk
    that returns to a node splices out the loop, whose arcs stay consumed,
    so every path is simple.  Scans resume at a per-node cursor: peeling
    only lowers flows, so a skipped arc stays skipped and a chosen one stays
    first until used up.
    """
    pos = [0] * len(out)
    paths: list[list[int]] = []
    for s in starts:
        if not any(cap[j ^ 1] for j in out[s] if not j & 1):
            continue
        nodes, arcs = [s], []
        while nodes[-1] not in ends:
            row, i = out[nodes[-1]], pos[nodes[-1]]
            while row[i] & 1 or not cap[row[i] ^ 1]:
                i += 1
            pos[nodes[-1]], j = i, row[i]
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


def disjoint_paths_or_separator(
    H: Multigraph,
    U: Iterable[EdgeId],
    T: Iterable[EdgeId],
    k: int,
    net: tuple | None = None,
) -> Union[PathSystem, Separator]:
    """Find k vertex-disjoint U,T-paths in L(H) or a minimum U,T-separator.

    U and T are edge ids of H, i.e. nodes of its line graph.  On success
    each path is a sequence of edge ids, consecutive ones sharing an end,
    that runs from a U-edge to a T-edge and is truncated at its first
    T-edge, so it meets T exactly once.  On failure the returned separator
    has minimum cardinality (hence fewer than k edges) and every U,T-path
    of L(H) meets it; its paths are the flow's, one per separator edge,
    each truncated at its first separator edge.  ``net`` must be
    ``network(H)``; it is built when None.
    """
    us = frozenset(U)
    ts = frozenset(T)
    if not us or not ts:
        raise InvalidInputError("U and T must be nonempty")
    number_ends(H, us | ts)
    if k < 1:
        raise InvalidInputError("k must be positive")

    eids = H.edge_ids
    m = len(eids)
    out, head, index = net or network(H)
    starts = [2 * index[u] for u in sorted(us)]
    ends = {2 * index[t] + 1 for t in ts}
    cap = [1, 0] * m + [_INF, 0] * (4 * m)
    flow, mark = _max_flow(out, head, cap, starts, ends, k)
    # cut each of the flow's paths at its first T-edge, or on failure at its
    # first edge of the minimum cut, which it crosses exactly once
    stop = ts if flow == k else frozenset(
        eids[i] for i in range(m) if mark[2 * i] != -1 and mark[2 * i + 1] == -1
    )
    paths: list[tuple[EdgeId, ...]] = []
    for arcs in _peel(out, head, cap, starts, ends):
        seq = [eids[j >> 1] for j in arcs if j < 2 * m]
        first = next(i for i, eid in enumerate(seq) if eid in stop)
        paths.append(tuple(seq[: first + 1]))
    if flow == k:
        return PathSystem(tuple(paths))
    return Separator(stop, tuple(paths))
