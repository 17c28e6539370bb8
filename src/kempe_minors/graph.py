"""Loopless multigraphs with stable edge identities.

Edges carry opaque string identifiers that survive contraction: contracting
an edge set removes exactly those edges and remaps endpoints, it never
renumbers anything.  A multigraph's one edge table maps each id, in id
order, to its ends as vertex numbers (positions in ``H.vertices``) for
every union-find and Kempe-chain walk; its arc table, each vertex's arcs
and each arc's head, serves the vertex stars and the Menger flow's
network.  The constructor alone decides loops, end order, repeated ids
and unknown ends, and records the parallel pair and the least vertex of
each degree.  All values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DisconnectedContractionSetError,
    DuplicateEdgeIdError,
    LoopEdgeError,
    UnknownEdgeIdError,
    UnknownEndpointError,
    UnknownVertexError,
    WouldCreateLoopError,
)

VertexId = str
EdgeId = str
EdgePair = tuple[EdgeId, tuple[VertexId, VertexId]]


class EdgeRecord(NamedTuple):
    """An edge as the pair ``(id, ends)``.  ``Multigraph`` takes any such
    pairs, and ``H.edge`` and ``H.edges`` build them with the ends in
    vertex order."""

    id: EdgeId
    ends: tuple[VertexId, VertexId]

    def covers(self, v: VertexId) -> bool:
        return v in self.ends

    def other(self, v: VertexId) -> VertexId:
        u, w = self.ends
        if v == u:
            return w
        if v == w:
            return u
        raise UnknownVertexError(f"{v!r} is not an endpoint of edge {self.id!r}")


def edge(eid: EdgeId, u: VertexId, v: VertexId) -> EdgeRecord:
    """Shorthand constructor for an :class:`EdgeRecord`."""
    return EdgeRecord(eid, (u, v))


class Multigraph:
    """A finite, undirected, loopless multigraph.

    Parallel edges are permitted; they are distinct ids with equal endpoint
    pairs.  Vertices and edge identifiers are strings ordered by their
    natural string order, which fixes iteration and vertex numbers.

    The constructor takes ``(id, (u, v))`` pairs, an ``EdgeRecord`` being
    one, and checks them in one pass in the order given: the first edge
    with a repeated id, an end outside the vertex set or two equal ends
    raises, tested in that order.  It records the sorted ids, each edge's
    numbered ends (lesser first) in id order, the arc table, the parallel
    pair and the least vertex of each degree.  The arc table holds, for
    each vertex number, the ascending tuple of its arc ids, and each arc's
    head: arc 2i runs along edge i (in id order) from its lesser-numbered
    end to its greater, arc 2i + 1 back.  ``edges_at`` reads a vertex's
    edge ids off its arcs on request.

    Instances support weak references.  Their immutability, vertex numbers
    included, is load-bearing: ``solver.solve``'s memo, keyed weakly on the
    graph object, keeps for each live graph the partition that last passed
    the instance checks and drops it with the graph.  No slot is written
    after construction.
    """

    __slots__ = (
        "_ids", "_ends", "_vertices", "_pos", "_arcs", "_heads", "_parallel",
        "_least", "__weakref__",
    )

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[EdgePair]):
        pos = {v: i for i, v in enumerate(sorted(set(vertices)))}
        given: dict[EdgeId, tuple[int, int]] = {}
        for eid, (u, w) in edges:
            if eid in given:
                raise DuplicateEdgeIdError(f"edge id {eid!r} occurs twice")
            try:
                a, b = pos[u], pos[w]
            except KeyError:
                raise UnknownEndpointError(
                    f"edge {eid!r} has endpoint outside the vertex set"
                ) from None
            if a == b:
                raise LoopEdgeError(f"edge {eid!r} would be a loop at {u!r}")
            given[eid] = (a, b) if a < b else (b, a)
        self._ids = ids = tuple(sorted(given))
        # documents list their edges in id order; re-key only when out of it
        ends = given if ids == tuple(given) else {eid: given[eid] for eid in ids}
        self._ends = ends
        self._vertices = tuple(pos)
        self._pos = pos
        # the arc table: arc 2i runs along edge i from its lesser end, 2i + 1
        # back; id order in, so each vertex's arcs come ascending
        arcs: list[list[int]] = [[] for _ in pos]
        heads: list[int] = []
        j = 0
        for a, b in ends.values():
            arcs[a].append(j)
            arcs[b].append(j + 1)
            heads += (b, a)
            j += 2
        self._arcs = tuple(map(tuple, arcs))
        self._heads = tuple(heads)
        # the first edge, in id order, whose numbered ends repeat an earlier
        # one's; the scan runs only when some ends repeat
        self._parallel: tuple[EdgeId, EdgeId] | None = None
        if len(set(ends.values())) < len(ends):
            seen: dict[tuple[int, int], EdgeId] = {}
            for eid, pair in ends.items():
                if pair in seen:
                    self._parallel = (seen[pair], eid)
                    break
                seen[pair] = eid
        least: dict[int, VertexId] = {}
        for v, row in zip(self._vertices, self._arcs):
            least.setdefault(len(row), v)
        self._least = least

    # -- basic queries -------------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return self._ids

    def edges(self) -> Iterator[EdgeRecord]:
        """Every edge's record, in id order, each built on request."""
        return map(self.edge, self._ids)

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self._ends

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._pos

    def edge(self, eid: EdgeId) -> EdgeRecord:
        """The record of edge ``eid``, its ends in vertex order."""
        try:
            a, b = self._ends[eid]
        except KeyError:
            raise UnknownEdgeIdError(f"unknown edge id {eid!r}") from None
        return EdgeRecord(eid, (self._vertices[a], self._vertices[b]))

    def _row(self, v: VertexId) -> tuple[int, ...]:
        """The arcs leaving vertex ``v``, ascending."""
        try:
            return self._arcs[self._pos[v]]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def edges_at(self, v: VertexId) -> tuple[EdgeId, ...]:
        """The ids of the edges at ``v``, ascending, read from its arcs."""
        ids = self._ids
        return tuple([ids[j >> 1] for j in self._row(v)])

    def degree(self, v: VertexId) -> int:
        return len(self._row(v))

    def num_edges(self) -> int:
        return len(self._ends)

    def covered(self, F: Iterable[EdgeId]) -> frozenset[VertexId]:
        """Vertices incident with at least one edge of the collection ``F``;
        an unknown id raises as in :func:`number_ends`."""
        vertices = self.vertices
        return frozenset(vertices[x] for pair in number_ends(self, F) for x in pair)

    def covered_vertices(self) -> frozenset[VertexId]:
        return frozenset(compress(self._vertices, self._arcs))

    def parallel_pair(self) -> tuple[EdgeId, EdgeId] | None:
        """The first edge, in id order, parallel to an earlier one, after
        that earlier one (the least id with the same ends); None if H is
        simple.  Recorded at construction."""
        return self._parallel

    def is_simple(self) -> bool:
        return self._parallel is None

    def least_vertex_of_degree(self, d: int) -> VertexId | None:
        """The least vertex of degree ``d``, or None if there is none.
        Recorded at construction."""
        return self._least.get(d)

    def degrees(self) -> frozenset[int]:
        """The degrees of H's vertices, read from those recorded at
        construction."""
        return frozenset(self._least)

    # -- derived graphs ------------------------------------------------------

    def without_vertex(self, v: VertexId) -> "Multigraph":
        gone, vs = set(self.edges_at(v)), self._vertices
        kept = ((e, (vs[a], vs[b])) for e, (a, b) in self._ends.items() if e not in gone)
        return Multigraph((u for u in vs if u != v), kept)


def number_ends(H: Multigraph, F: Iterable[EdgeId]) -> list[tuple[int, int]]:
    """The ends of each edge of ``F``, in F's order, as the vertex numbers H
    recorded when built.  An unknown id raises UnknownEdgeIdError naming the
    least unknown id of F, whatever F's order (for a collection F)."""
    try:
        return list(map(H._ends.__getitem__, F))
    except KeyError as err:
        bad = min((e for e in F if e not in H._ends), default=err.args[0])
        raise UnknownEdgeIdError(f"unknown edge id {bad!r}") from None


def arc_table(H: Multigraph) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The arc table H recorded when built: each vertex number's arcs,
    ascending, and each arc's head.  Arc 2i runs along the i-th edge in id
    order from its lesser-numbered end to its greater, arc 2i + 1 back.
    Both are H's own tuples."""
    return H._arcs, H._heads


def union_find(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, list[int]]:
    """Union-find on the nodes ``0 .. n-1``: merge each pair's two parts.

    Returns how many pairs joined two different parts, and the parent list,
    whose parent chains end at each part's root.  The pairs' graph on the
    nodes they touch has that many nodes minus the joins as components.
    Finds use path halving.
    """
    parent = list(range(n))
    joins = 0
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            joins += 1
    return joins, parent


def edge_components(H: Multigraph, F: Iterable[EdgeId]) -> tuple[frozenset[EdgeId], ...]:
    """Partition ``F`` into maximal connected edge sets.

    An edge set is connected when any two of its edges lie on a path of
    edges from the set.  One union-find pass on H's vertex numbers over F in
    id order groups the edges by root, so parts come sorted by least edge id.
    """
    fs = sorted(set(F))
    pairs = number_ends(H, fs)
    _, parent = union_find(len(H.vertices), pairs)
    parts: dict[int, list[EdgeId]] = {}
    for eid, (a, _) in zip(fs, pairs):
        while parent[a] != a:
            a = parent[a]
        parts.setdefault(a, []).append(eid)
    return tuple(frozenset(p) for p in parts.values())


def contract(H: Multigraph, F: Iterable[EdgeId]) -> tuple[Multigraph, VertexId]:
    """Contract the connected edge set ``F`` to a single fresh vertex.

    The resulting edge set equals E(H) minus F with identities preserved;
    endpoints inside the merged vertex set are remapped to the fresh vertex.
    F must form one edge component; the union-find on H's vertex numbers
    counts them as F's covered vertices minus its joins (none for an empty
    F).  An edge outside F joining two merged vertices would become a loop
    and raises, since callers only ever contract full edge sides.
    """
    fs = frozenset(F)
    pairs = number_ends(H, fs)
    vertices = H.vertices
    merged = {x for pair in pairs for x in pair}
    parts = len(merged) - union_find(len(vertices), pairs)[0]
    if parts != 1:
        raise DisconnectedContractionSetError(
            f"contraction set has {parts} edge components, need exactly 1"
        )
    w = "w"
    i = 0
    while H.has_vertex(w):
        w = f"w{i}"
        i += 1
    # each vertex number's name after the contraction
    name = [w if x in merged else v for x, v in enumerate(vertices)]
    new_edges: list[EdgePair] = []
    for eid, (a, b) in H._ends.items():
        if eid in fs:
            continue
        if a in merged and b in merged:
            raise WouldCreateLoopError(
                f"edge {eid!r} joins two vertices merged by the contraction"
            )
        new_edges.append((eid, (name[a], name[b])))
    return Multigraph(name, new_edges), w
