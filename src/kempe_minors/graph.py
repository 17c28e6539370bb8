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

    __slots__ = ("_edges", "_at", "__weakref__")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[EdgeRecord]):
        recs: dict[EdgeId, EdgeRecord] = {}
        at: dict[VertexId, list[EdgeId]] = {v: [] for v in sorted(set(vertices))}
        for e in edges:
            if e.id in recs:
                raise DuplicateEdgeIdError(f"edge id {e.id!r} occurs twice")
            u, w = e.ends
            if u not in at or w not in at:
                raise UnknownEndpointError(
                    f"edge {e.id!r} has endpoint outside the vertex set"
                )
            recs[e.id] = e
            at[u].append(e.id)
            at[w].append(e.id)
        self._edges = {eid: recs[eid] for eid in sorted(recs)}
        self._at = {v: tuple(sorted(ids)) for v, ids in at.items()}

    # -- basic queries -------------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(self._at)

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(self._edges)

    def edges(self) -> Iterator[EdgeRecord]:
        return iter(self._edges.values())

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self._edges

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._at

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
        return Multigraph(self._at, (e for e in self.edges() if e.id not in drop))

    def without_vertex(self, v: VertexId) -> "Multigraph":
        if v not in self._at:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return Multigraph(
            (u for u in self._at if u != v),
            (e for e in self.edges() if not e.covers(v)),
        )


def number_ends(
    H: Multigraph, F: Iterable[EdgeId], index: dict[VertexId, int]
) -> list[tuple[int, int]]:
    """The ends of each edge of ``F`` as node numbers; an end new to ``index``
    gets the next number, ``len(index)``, so callers can share one index.
    The first unknown id in F's order raises UnknownEdgeIdError."""
    try:
        return [
            (index.setdefault(u, len(index)), index.setdefault(w, len(index)))
            for u, w in (H._edges[eid].ends for eid in F)
        ]
    except KeyError as err:
        raise UnknownEdgeIdError(f"unknown edge id {err.args[0]!r}") from None


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
    edges from the set.  One union-find pass over F in id order groups the
    edges by root, so parts come sorted by least edge id.
    """
    fs = sorted(set(F))
    index: dict[VertexId, int] = {}
    pairs = number_ends(H, fs, index)
    _, parent = union_find(len(index), pairs)
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
    F must form one edge component; the union-find counts them as F's
    covered vertices minus its joins (none for an empty F).  An edge outside
    F joining two merged vertices would become a loop and raises, since
    callers only ever contract full edge sides.
    """
    fs = frozenset(F)
    merged: dict[VertexId, int] = {}
    pairs = number_ends(H, sorted(fs), merged)
    parts = len(merged) - union_find(len(merged), pairs)[0]
    if parts != 1:
        raise DisconnectedContractionSetError(
            f"contraction set has {parts} edge components, need exactly 1"
        )
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
    vertices = [v for v in H.vertices if v not in merged] + [w]
    return Multigraph(vertices, new_edges), w
