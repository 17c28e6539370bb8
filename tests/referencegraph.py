"""The multigraph constructor as it was when every graph kept two edge
tables: the tests' reference.

The package's ``Multigraph`` takes ``(id, (u, v))`` pairs, decides loops,
end order, repeated ids and unknown ends itself, keeps one table of each
edge's numbered ends in id order and builds an ``EdgeRecord`` only on
request.  This is the design it replaced: a frozen-dataclass record that
refused a loop and ordered its ends when built, and a constructor that
refused repeated ids and unknown ends and kept the records by id beside
the numbered ends.  It is kept so the tests can compare the recorded facts,
and the error raised on an edge list with one fault, on the same lists.
"""

from dataclasses import dataclass

from kempe_minors.errors import (
    DuplicateEdgeIdError,
    LoopEdgeError,
    UnknownEndpointError,
)


@dataclass(frozen=True)
class ReferenceEdgeRecord:
    id: str
    ends: tuple

    def __post_init__(self):
        u, v = self.ends
        if u == v:
            raise LoopEdgeError(f"edge {self.id!r} would be a loop at {u!r}")
        if u > v:
            object.__setattr__(self, "ends", (v, u))


class ReferenceMultigraph:
    """Built from ``(id, (u, v))`` pairs, each made a record first, as the
    records of an edge list were built before the constructor ran."""

    def __init__(self, vertices, pairs):
        edges = [ReferenceEdgeRecord(eid, tuple(ends)) for eid, ends in pairs]
        recs = {}
        pos = {v: i for i, v in enumerate(sorted(set(vertices)))}
        at = [[] for _ in pos]
        ends = {}
        for e in edges:
            eid = e.id
            if eid in recs:
                raise DuplicateEdgeIdError(f"edge id {eid!r} occurs twice")
            u, w = e.ends
            try:
                a, b = pos[u], pos[w]
            except KeyError:
                raise UnknownEndpointError(
                    f"edge {eid!r} has endpoint outside the vertex set"
                ) from None
            recs[eid] = e
            ends[eid] = (a, b)
            at[a].append(eid)
            at[b].append(eid)
        self._edges = {eid: recs[eid] for eid in sorted(recs)}
        self._at = {v: tuple(sorted(ids)) for v, ids in zip(pos, at)}
        self._ends = ends
        self.vertices = tuple(pos)
        self._parallel = None
        if len(set(ends.values())) < len(ends):
            seen = {}
            for eid in self._edges:
                pair = ends[eid]
                if pair in seen:
                    self._parallel = (seen[pair], eid)
                    break
                seen[pair] = eid
        least = {}
        for v, ids in self._at.items():
            least.setdefault(len(ids), v)
        self._least = least

    @property
    def edge_ids(self):
        return tuple(self._edges)

    def edges(self):
        return iter(self._edges.values())

    def edges_at(self, v):
        return self._at[v]

    def number_ends(self, F):
        return [self._ends[e] for e in F]

    def parallel_pair(self):
        return self._parallel

    def least_vertex_of_degree(self, d):
        return self._least.get(d)

    def degrees(self):
        return frozenset(self._least)
