"""Matching partitions (Kempe edge colorings) and transversals, with their
verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import EdgeId, Multigraph, VertexId, number_ends, union_find


@dataclass(frozen=True)
class MatchingPartition:
    """A partition of E(H) into (not necessarily maximum) matchings.

    Classes are indexed by position; the index is the handle the solver and
    the serialization layer use for bag-to-class accounting.
    """

    classes: tuple[frozenset[EdgeId], ...]

    @staticmethod
    def of(classes: Iterable[Iterable[EdgeId]]) -> "MatchingPartition":
        return MatchingPartition(tuple(frozenset(c) for c in classes))

    @property
    def k(self) -> int:
        return len(self.classes)

    def all_edges(self) -> frozenset[EdgeId]:
        return frozenset().union(*self.classes)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural verification, with diagnosable violations."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _reject(*violations: str) -> Verdict:
    return Verdict(False, violations)


def verify_matching_partition(H: Multigraph, part: MatchingPartition) -> Verdict:
    """Accept iff the classes partition E(H) and each class is a matching."""
    violations: list[str] = []
    seen: dict[EdgeId, int] = {}
    for i, cls in enumerate(part.classes):
        if not cls:
            violations.append(f"class {i} is empty")
        ordered = sorted(cls)
        for eid in ordered:
            if eid not in H:
                violations.append(f"class {i}: unknown edge {eid!r}")
            elif eid in seen:
                violations.append(
                    f"edge {eid!r} occurs in classes {seen[eid]} and {i}"
                )
            else:
                seen[eid] = i
        # matching: no two class edges share an endpoint
        at: dict[VertexId, EdgeId] = {}
        for eid in ordered:
            if eid not in H:
                continue
            for v in H.edge(eid).ends:
                if v in at:
                    violations.append(
                        f"class {i}: edges {at[v]!r} and {eid!r} share vertex {v!r}"
                    )
                else:
                    at[v] = eid
    missing = sorted(set(H.edge_ids) - set(seen))
    for eid in missing:
        violations.append(f"edge {eid!r} is in no class")
    return Verdict(not violations, tuple(violations))


def verify_kempe(H: Multigraph, part: MatchingPartition) -> Verdict:
    """Accept iff the union of any two classes is one connected edge set.

    Stops at the first failing pair; the verdict names it by class indices.
    Every class edge is looked up first, so an unknown edge id raises
    UnknownEdgeIdError.  The classes' ends are numbered into one shared
    index, and each pair is checked by one ``graph.union_find`` pass over
    the two classes' edges: the union is connected iff the successful joins
    number one less than the vertices it covers (an empty union covers
    none).
    """
    index: dict[VertexId, int] = {}
    ends = [number_ends(H, cls, index) for cls in part.classes]
    covers = [{x for pair in pairs for x in pair} for pairs in ends]
    for i, j in combinations(range(part.k), 2):
        joins, _ = union_find(len(index), ends[i] + ends[j])
        if joins != len(covers[i] | covers[j]) - 1:
            return _reject(f"union of classes {i} and {j} is not connected")
    return Verdict(True)


def verify_transversal(part: MatchingPartition, T: Iterable[EdgeId]) -> Verdict:
    """Accept iff T picks exactly one edge from every class and nothing else."""
    ts = frozenset(T)
    violations: list[str] = []
    stray = set(ts)
    for i, cls in enumerate(part.classes):
        hit = ts & cls
        stray -= hit
        if len(hit) != 1:
            violations.append(
                f"class {i} is hit {len(hit)} times ({', '.join(map(repr, sorted(hit)))})"
            )
    for eid in sorted(stray):
        violations.append(f"edge {eid!r} belongs to no class")
    return Verdict(not violations, tuple(violations))
