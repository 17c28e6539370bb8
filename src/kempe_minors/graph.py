"""Loopless multigraphs with stable edge identities.

Edges carry opaque string identifiers that survive contraction: contracting
an edge set removes exactly those edges and remaps endpoints, it never
renumbers anything.  All values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class EdgeRecord:
    """An edge with a stable identifier and an unordered pair of endpoints."""

    id: EdgeId
    ends: tuple[VertexId, VertexId]

    def __post_init__(self) -> None:
        u, v = self.ends
        if u == v:
            raise LoopEdgeError(f"edge {self.id!r} would be a loop at {u!r}")
        if u > v:
            object.__setattr__(self, "ends", (v, u))

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

    Parallel edges are permitted; they are distinct records with equal
    endpoint pairs.  Vertices and edge identifiers are strings ordered by
    their natural string order, which fixes deterministic iteration.

    Instances support weak references.  Their immutability is load-bearing:
    ``solver.solve`` skips the instance checks for the (graph, partition)
    pair it last validated, and the Menger flow reuses the network it last
    built for the same graph, both by object identity.
    """

    __slots__ = ("_vertices", "_edges", "_at", "__weakref__")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[EdgeRecord]):
        vs = frozenset(vertices)
        recs: dict[EdgeId, EdgeRecord] = {}
        at: dict[VertexId, list[EdgeId]] = {v: [] for v in vs}
        for e in edges:
            if e.id in recs:
                raise DuplicateEdgeIdError(f"edge id {e.id!r} occurs twice")
            u, w = e.ends
            if u not in vs or w not in vs:
                raise UnknownEndpointError(
                    f"edge {e.id!r} has endpoint outside the vertex set"
                )
            recs[e.id] = e
            at[u].append(e.id)
            at[w].append(e.id)
        self._vertices = vs
        self._edges = {eid: recs[eid] for eid in sorted(recs)}
        self._at = {v: tuple(sorted(at[v])) for v in at}

    # -- basic queries -------------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self._vertices))

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(self._edges)

    def edges(self) -> Iterator[EdgeRecord]:
        return iter(self._edges.values())

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self._edges

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._vertices

    def edge(self, eid: EdgeId) -> EdgeRecord:
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownEdgeIdError(f"unknown edge id {eid!r}") from None

    def edges_at(self, v: VertexId) -> tuple[EdgeId, ...]:
        try:
            return self._at[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def degree(self, v: VertexId) -> int:
        return len(self.edges_at(v))

    def num_edges(self) -> int:
        return len(self._edges)

    def covered(self, F: Iterable[EdgeId]) -> frozenset[VertexId]:
        """Vertices incident with at least one edge of ``F``."""
        out: set[VertexId] = set()
        for eid in F:
            out.update(self.edge(eid).ends)
        return frozenset(out)

    def covered_vertices(self) -> frozenset[VertexId]:
        return frozenset(v for v, ids in self._at.items() if ids)

    def parallel_pair(self) -> tuple[EdgeId, EdgeId] | None:
        """The lexicographically least pair of parallel edges, if any."""
        seen: dict[tuple[VertexId, VertexId], EdgeId] = {}
        for e in self.edges():
            if e.ends in seen:
                return (seen[e.ends], e.id)
            seen[e.ends] = e.id
        return None

    def is_simple(self) -> bool:
        return self.parallel_pair() is None

    # -- derived graphs ------------------------------------------------------

    def without_edges(self, F: Iterable[EdgeId]) -> "Multigraph":
        drop = set(F)
        for eid in drop:
            self.edge(eid)
        return Multigraph(
            self._vertices, (e for e in self.edges() if e.id not in drop)
        )

    def without_vertex(self, v: VertexId) -> "Multigraph":
        if v not in self._vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return Multigraph(
            self._vertices - {v}, (e for e in self.edges() if not e.covers(v))
        )


def edge_components(H: Multigraph, F: Iterable[EdgeId]) -> tuple[frozenset[EdgeId], ...]:
    """Partition ``F`` into maximal connected edge sets.

    An edge set is connected when any two of its edges lie on a path of
    edges from the set.  Parts are returned sorted by their least edge id.
    """
    fs = sorted(set(F))
    for eid in fs:
        H.edge(eid)
    at: dict[VertexId, list[EdgeId]] = {}
    for eid in fs:
        for v in H.edge(eid).ends:
            at.setdefault(v, []).append(eid)
    unseen = set(fs)
    parts: list[frozenset[EdgeId]] = []
    for seed in fs:
        if seed not in unseen:
            continue
        comp = {seed}
        unseen.discard(seed)
        stack = [seed]
        while stack:
            eid = stack.pop()
            for v in H.edge(eid).ends:
                for other in at[v]:
                    if other in unseen:
                        unseen.discard(other)
                        comp.add(other)
                        stack.append(other)
        parts.append(frozenset(comp))
    return tuple(sorted(parts, key=min))


def count_joins(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """Union-find on the nodes ``0 .. n-1``: merge each pair's two parts.

    Returns how many pairs joined two different parts.  The graph the pairs
    form on the nodes they touch is connected iff that count is one less
    than the number of those nodes.  Finds use path halving.
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
    return joins


def contract(H: Multigraph, F: Iterable[EdgeId]) -> tuple[Multigraph, VertexId]:
    """Contract the connected edge set ``F`` to a single fresh vertex.

    The resulting edge set equals E(H) minus F with identities preserved;
    endpoints inside the merged vertex set are remapped to the fresh vertex.
    An edge outside F joining two merged vertices would become a loop and
    raises, since callers only ever contract full edge sides.
    """
    fs = frozenset(F)
    parts = edge_components(H, fs)
    if len(parts) != 1:
        raise DisconnectedContractionSetError(
            f"contraction set has {len(parts)} edge components, need exactly 1"
        )
    merged = H.covered(fs)
    w = "w"
    i = 0
    while H.has_vertex(w):
        w = f"w{i}"
        i += 1
    new_edges: list[EdgeRecord] = []
    for e in H.edges():
        if e.id in fs:
            continue
        u, x = e.ends
        if u in merged and x in merged:
            raise WouldCreateLoopError(
                f"edge {e.id!r} joins two vertices merged by the contraction"
            )
        u2 = w if u in merged else u
        x2 = w if x in merged else x
        new_edges.append(EdgeRecord(e.id, (u2, x2)))
    vertices = (set(H.vertices) - merged) | {w}
    return Multigraph(vertices, new_edges), w
