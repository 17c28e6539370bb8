"""Matching partitions (Kempe edge colorings) and transversals, with their
verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

from .errors import UnknownEdgeIdError
from .graph import EdgeId, Multigraph, VertexId, number_ends


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


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural verification, with diagnosable violations."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_matching_partition(H: Multigraph, part: MatchingPartition) -> Verdict:
    """Accept iff the classes partition E(H) and each class is a matching.

    Acceptance is decided per class, not per edge: every class's ends are
    numbered (``graph.number_ends``), each class is nonempty and covers
    twice as many vertices as it has edges, and both the class sizes' sum
    and their union's size are |E(H)|.  Only a partition that fails is
    walked edge by edge, to name every violation.
    """
    classes = part.classes
    m = H.num_edges()
    try:
        matchings = all(
            cls and len(set(chain.from_iterable(number_ends(H, cls)))) == 2 * len(cls)
            for cls in classes
        )
    except UnknownEdgeIdError:
        matchings = False
    if matchings and sum(map(len, classes)) == m == len(frozenset().union(*classes)):
        return Verdict(True)
    violations: list[str] = []
    seen: dict[EdgeId, int] = {}
    for i, cls in enumerate(part.classes):
        if not cls:
            violations.append(f"class {i} is empty")
        known: list[EdgeId] = []  # the class's edges of H, in order
        for eid in sorted(cls):
            if eid not in H:
                violations.append(f"class {i}: unknown edge {eid!r}")
                continue
            known.append(eid)
            if eid in seen:
                violations.append(
                    f"edge {eid!r} occurs in classes {seen[eid]} and {i}"
                )
            else:
                seen[eid] = i
        # matching: no two class edges share an endpoint
        at: dict[VertexId, EdgeId] = {}
        for eid in known:
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
    """Accept iff every class is a matching and the union of any two classes
    is one connected edge set.

    Every class edge is looked up first, so an unknown edge id raises
    UnknownEdgeIdError naming the least unknown id of the first class that
    holds one (``graph.number_ends``).  Each class then gets a ``mate`` list
    on H's vertex numbers, -1 where it has no edge, and the first class that
    meets a vertex twice is rejected as not a matching.  Two matchings'
    union is a set of Kempe chains, paths and even cycles, so it is
    connected iff the chain through one end of the pair's first edge,
    walked along the two classes' mates in turn (both ways on a path),
    holds all the pair's edges.  The verdict names the first failing pair;
    an empty union is not connected.
    """
    n = len(H.vertices)
    ends = [number_ends(H, cls) for cls in part.classes]
    mates: list[list[int]] = []
    for i, pairs in enumerate(ends):
        mate = [-1] * n
        for a, b in pairs:
            mate[a] = b
            mate[b] = a
        if mate.count(-1) != n - 2 * len(pairs):
            return Verdict(False, (f"class {i} is not a matching",))
        mates.append(mate)
    for i, j in combinations(range(part.k), 2):
        first = ends[i] or ends[j]
        walked = 0
        if first:
            a = first[0][0]
            for p, q in ((mates[i], mates[j]), (mates[j], mates[i])):
                x = a
                while True:  # along p, then q, until a path ends or x is back at a
                    x = p[x]
                    if x < 0:
                        break
                    x = q[x]
                    if x < 0:
                        walked += 1
                        break
                    walked += 2
                    if x == a:
                        break
                if x == a:  # a cycle, walked whole
                    break
        if walked == 0 or walked != len(ends[i]) + len(ends[j]):
            return Verdict(False, (f"union of classes {i} and {j} is not connected",))
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
