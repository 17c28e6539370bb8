"""The Menger flow: vertex-disjoint paths or a minimum separator in L(H).

The path finder runs one unit-capacity flow, a search forest per round,
then one path decomposition, in a deterministic (ascending id) search
order.  L(H) itself is never built: each vertex of H is an uncapacitated
hub standing in for the clique that L(H) has at it, and each edge of H an
undirected unit arc pair between its two hubs, so vertex-disjoint paths in
L(H) are the flow paths that share no edge.  Only the edges of U and T
need nodes, as starts and ends, and get an in-node and an out-node joined
by a unit arc.  The minimum separators of L(H) and the network coincide.
Below k, the flow's paths are peeled only as far as the last search's
reach: each stops right after the one cut edge it crosses, so the
separator is the set of their last edges.

Each call builds its own network, three plain lists ``out``, ``head`` and
``cap`` (see ``network``), and the flow on an arc is read from its
reverse arc against the capacities as built.  It starts from the arc table
H recorded when built, so a call loops over U and T, not over H's edges.
The network has no source or sink: U enters the flow as its start nodes
and T as its end nodes, which ``network`` checks and numbers.  The module
keeps no state and never writes into H.  The arc ids and each node's arc
order fix the search order, hence every path, separator and bag.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence, Union

from .errors import InvalidInputError
from .graph import EdgeId, Multigraph, arc_table, number_ends


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
    runs from a U-edge to its own separator edge, its last, and meets no
    other; ``nodes`` is the set of their last edges.
    """

    nodes: frozenset[EdgeId]
    paths: tuple[tuple[EdgeId, ...], ...]

    def __len__(self) -> int:
        return len(self.nodes)


_INF = 1 << 30


def network(
    H: Multigraph, U: AbstractSet[EdgeId], T: AbstractSet[EdgeId]
) -> tuple[list[Sequence[int]], list[int], list[int], list[int], set[int]]:
    """H's flow network, with node pairs for the edges of U and T.

    U and T are sets of H's edge ids, checked by ``graph.number_ends``.
    Returns ``(out, head, cap, starts, ends)``: ``head[j]`` is the end of
    arc ``j``, ``j ^ 1`` its reverse, ``out[x]`` node x's arcs in ascending
    id order, ``cap`` the capacities as built, ``starts`` the in-nodes of
    U's edges in ascending id order and ``ends`` the out-nodes of T's.

    Nodes: H's vertex numbers are the hubs 0..n-1, and ``split[r]``, the
    r-th edge of U ∪ T in id order, is in-node n + 2r and out-node
    n + 2r + 1.  Arcs, in id order:

    - ``2i``, ``2i+1`` for edge i of ``H.edge_ids``: from its lesser end's
      hub to its greater's and back, capacity 1 each, as in H's arc table,
      or for an edge of ``split`` in -> out and back, capacity 1 and 0; a
      minimum cut therefore consists of these arcs;
    - from ``j = 2m + 8r``, four per end of ``split[r]``, lesser end
      first: out -> hub, its reverse, hub -> in, its reverse,
      uncapacitated.

    ``out`` shares the rows of H's arc table, which no caller writes; each
    end of a split edge gets a new row, its arc along the edge dropped and
    its arcs into the in-node appended.
    """
    eids = H.edge_ids
    split = sorted(U | T)
    rows, heads = arc_table(H)
    out: list[Sequence[int]] = list(rows)
    head = list(heads)
    cap = [1] * len(head)
    n = len(out)
    for eid, (a, b) in zip(split, number_ends(H, split)):
        i = bisect_left(eids, eid)
        x, j = len(out), len(head)
        head[2 * i], head[2 * i + 1], cap[2 * i + 1] = x + 1, x, 0
        head += (a, x + 1, x, a, b, x + 1, x, b)
        cap += (_INF, 0) * 4
        out += ((2 * i, j + 3, j + 7), (2 * i + 1, j, j + 4))
        for v, arc, new in ((a, 2 * i, j + 1), (b, 2 * i + 1, j + 5)):
            row = list(out[v])
            row.remove(arc)
            out[v] = row + [new, new + 1]
    starts = [n + 2 * r for r, eid in enumerate(split) if eid in U]
    ends = {n + 2 * r + 1 for r, eid in enumerate(split) if eid in T}
    return out, head, cap, starts, ends


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
    base: list[int],
    starts: list[int],
    ends: AbstractSet[int],
) -> list[list[int]]:
    """Peel the flow into start-end paths, as arc lists, one per start that
    sends a unit, in the order of ``starts``.

    Augmenting keeps ``cap[j] + cap[j ^ 1]`` fixed, so the flow on arc j is
    ``cap[j ^ 1] - base[j ^ 1]``, against the capacities ``base`` as built.
    A start sends at most one unit and none enters it; a walk ends at the
    first end node it reaches.  Its caller passes T's out-nodes when k
    units flow and, below k, the nodes the last search missed, so each walk
    stops right after the one edge of the minimum cut it crosses.  Each
    step consumes one unit and an edge's arc pair carries at most one, so
    no edge occurs twice among the paths.  Scans resume at a per-node
    cursor: peeling only lowers flows, so a skipped arc stays skipped and a
    chosen one stays first until used up.
    """
    pos = [0] * len(out)
    paths: list[list[int]] = []
    for s in starts:
        if all(cap[j ^ 1] <= base[j ^ 1] for j in out[s]):
            continue
        x, arcs = s, []
        while x not in ends:
            row, i = out[x], pos[x]
            while cap[row[i] ^ 1] <= base[row[i] ^ 1]:
                i += 1
            pos[x], j = i, row[i]
            cap[j ^ 1] -= 1
            arcs.append(j)
            x = head[j]
        paths.append(arcs)
    return paths


def disjoint_paths_or_separator(
    H: Multigraph, U: Iterable[EdgeId], T: Iterable[EdgeId], k: int
) -> Union[PathSystem, Separator]:
    """Find k vertex-disjoint U,T-paths in L(H) or a minimum U,T-separator.

    U and T are edge ids of H, i.e. nodes of its line graph.  On success
    each path is a sequence of edge ids, consecutive ones sharing an end,
    that runs from a U-edge to a T-edge; a T-edge's flow enters at its
    in-node and stops at its out-node, so the path meets T only at its
    end.  On failure the returned separator has minimum cardinality (hence
    fewer than k edges) and every U,T-path of L(H) meets it; its paths are
    the flow's, one per separator edge, each peeled up to the first node
    the last search missed, so it ends at the one cut edge it crosses.
    """
    us = frozenset(U)
    ts = frozenset(T)
    if not us or not ts:
        raise InvalidInputError("U and T must be nonempty")
    out, head, cap, starts, ends = network(H, us, ts)
    if isinstance(k, bool) or not isinstance(k, int):
        raise InvalidInputError("k must be an integer")
    if k < 1:
        raise InvalidInputError("k must be positive")

    eids = H.edge_ids
    m = len(eids)
    base = cap.copy()
    flow, mark = _max_flow(out, head, cap, starts, ends, k)
    if flow < k:
        ends = {x for x, j in enumerate(mark) if j == -1}
    # tuple() of lists: a tuple grown from a generator is resized as it
    # fills, which raised corpus-sweep's peak RSS by 1.3 MiB (CPython 3.11)
    paths = tuple([
        tuple([eids[j >> 1] for j in arcs if j < 2 * m])
        for arcs in _peel(out, head, cap, base, starts, ends)
    ])
    if flow == k:
        return PathSystem(paths)
    return Separator(frozenset(p[-1] for p in paths), paths)
