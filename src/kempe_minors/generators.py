"""Instance generators.

All generators return a graph together with a matching partition whose
pairwise class unions are connected.  Each certifies its output once before
returning it: the underlying constructions are correct, but the transcription
deserves the cheap insurance.  Circulants, splices and the K_4 seed are
certified as perfect 1-factorizations and vertex deletions as near-perfect
ones, both by the partition, class-size and Kempe-chain checks.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Sequence

from .coloring import MatchingPartition, verify_kempe, verify_matching_partition
from .errors import (
    BadModulusError,
    InternalAssertionError,
    NotPerfectError,
    OrderMismatchError,
    ShiftOutOfRangeError,
    UnknownVertexError,
)
from .graph import EdgeId, EdgePair, Multigraph, VertexId

Instance = tuple[Multigraph, MatchingPartition]


# ---------------------------------------------------------------------------
# certification helpers


def is_perfect_one_factorization(H: Multigraph, part: MatchingPartition) -> bool:
    """Perfect matchings whose pairwise unions are all Hamilton cycles.

    Two perfect matchings have a spanning 2-regular union, which is one
    Hamilton cycle exactly when it is connected, so the Kempe check suffices.
    """
    nv = len(H.vertices)
    return bool(
        verify_matching_partition(H, part)
        and all(2 * len(cls) == nv for cls in part.classes)
        and verify_kempe(H, part)
    )


def _is_near_perfect(H: Multigraph, part: MatchingPartition) -> bool:
    """Matchings whose pairwise unions are all Hamilton paths.

    The union of two matchings has maximum degree 2, so it is a Hamilton
    path exactly when it has |V| - 1 edges, misses no vertex and is
    connected.  It misses a vertex only if both classes do, which degree
    k - 1 or more rules out; the Kempe check gives the connectivity.
    """
    nv = len(H.vertices)
    sizes = [len(cls) for cls in part.classes]
    return bool(
        verify_matching_partition(H, part)
        and all(a + b == nv - 1 for a, b in combinations(sizes, 2))
        and all(d >= part.k - 1 for d in H.degrees())
        and verify_kempe(H, part)
    )


# ---------------------------------------------------------------------------
# construction (A): bipartite circulants


def gen_circulant(m: int, shifts: Sequence[int]) -> Instance:
    """Bipartite circulant with a perfect 1-factorization.

    Vertices are two rings of residues modulo m; class i joins each bottom
    residue z to the top residue z + shifts[i].  Any two class unions step
    around the rings by the shift difference, which is coprime to m, so they
    close into a single Hamilton cycle.
    """
    if m <= 0:
        raise BadModulusError("modulus must be positive")
    for a in shifts:
        if a < 0 or a >= m:
            raise ShiftOutOfRangeError(f"shift {a} outside [0, {m})")
    for a, b in combinations(shifts, 2):
        if gcd(a - b, m) != 1:
            raise BadModulusError(
                f"gcd({a}-{b}, {m}) = {gcd(a - b, m)} != 1"
            )
    width = len(str(m - 1))

    def bot(z: int) -> str:
        return f"b{z % m:0{width}d}"

    def top(z: int) -> str:
        return f"t{z % m:0{width}d}"

    vertices = [bot(z) for z in range(m)] + [top(z) for z in range(m)]
    edges: list[EdgePair] = []
    classes: list[set[EdgeId]] = []
    for i, a in enumerate(shifts):
        cls: set[EdgeId] = set()
        for z in range(m):
            eid = f"c{i}z{z:0{width}d}"
            edges.append((eid, (bot(z), top(z + a))))
            cls.add(eid)
        classes.append(cls)
    H = Multigraph(vertices, edges)
    part = MatchingPartition.of(classes)
    if not is_perfect_one_factorization(H, part):
        raise InternalAssertionError("circulant is not a perfect 1-factorization")
    return H, part


# ---------------------------------------------------------------------------
# construction (B): splicing two perfect 1-factorizations


def splice(
    first: Instance, v1: VertexId, second: Instance, v2: VertexId
) -> Instance:
    """Glue two perfect 1-factorizations of equal order at a vertex each.

    Both chosen vertices are removed; the j-th bridge edge joins the stubs
    their class-j edges leave behind.  Vertex and edge ids of the inputs are
    prefixed with "a." and "b." to keep them disjoint.
    """
    h1, c1 = first
    h2, c2 = second
    if c1.k != c2.k:
        raise OrderMismatchError(f"orders differ: {c1.k} vs {c2.k}")
    for h, c, which in ((h1, c1, "first"), (h2, c2, "second")):
        if not is_perfect_one_factorization(h, c):
            raise NotPerfectError(f"{which} input is not a perfect 1-factorization")
    for h, v, which in ((h1, v1, "first"), (h2, v2, "second")):
        if not h.has_vertex(v):
            raise UnknownVertexError(f"{which} input has no vertex {v!r}")
    k = c1.k

    def stub(h: Multigraph, c: MatchingPartition, v: VertexId, j: int) -> VertexId:
        (hit,) = [eid for eid in h.edges_at(v) if eid in c.classes[j]]
        return h.edge(hit).other(v)

    vertices = [f"a.{v}" for v in h1.vertices if v != v1]
    vertices += [f"b.{v}" for v in h2.vertices if v != v2]
    edges: list[EdgePair] = []
    classes: list[set[EdgeId]] = [set() for _ in range(k)]
    for h, c, drop, prefix in ((h1, c1, v1, "a."), (h2, c2, v2, "b.")):
        class_of = {eid: j for j, cls in enumerate(c.classes) for eid in cls}
        for e in h.edges():
            if e.covers(drop):
                continue
            u, w = e.ends
            edges.append((f"{prefix}{e.id}", (f"{prefix}{u}", f"{prefix}{w}")))
            classes[class_of[e.id]].add(f"{prefix}{e.id}")
    for j in range(k):
        u1 = stub(h1, c1, v1, j)
        u2 = stub(h2, c2, v2, j)
        fid = f"f{j}"
        edges.append((fid, (f"a.{u1}", f"b.{u2}")))
        classes[j].add(fid)
    H = Multigraph(vertices, edges)
    part = MatchingPartition.of(classes)
    if not is_perfect_one_factorization(H, part):
        raise InternalAssertionError("splice result is not a perfect 1-factorization")
    return H, part


# ---------------------------------------------------------------------------
# construction (C): vertex deletion


def delete_vertex(H: Multigraph, part: MatchingPartition, v: VertexId) -> Instance:
    """Delete one vertex of a perfect 1-factorization.

    Each class shrinks by its edge at the vertex; every pair union becomes a
    Hamilton path of the smaller graph.
    """
    if not H.has_vertex(v):
        raise UnknownVertexError(f"no vertex {v!r}")
    if not is_perfect_one_factorization(H, part):
        raise NotPerfectError("input is not a perfect 1-factorization")
    at = set(H.edges_at(v))
    H2 = H.without_vertex(v)
    part2 = MatchingPartition.of(c - at for c in part.classes)
    if not _is_near_perfect(H2, part2):
        raise InternalAssertionError(
            "vertex deletion is not a near-perfect 1-factorization"
        )
    return H2, part2


# ---------------------------------------------------------------------------
# seed


def k4_seed() -> Instance:
    """K_4 with its unique 1-factorization: the smallest complete seed."""
    vertices = ["0", "1", "2", "3"]
    pairs = [(u, v) for u, v in combinations(vertices, 2)]
    edges = [(f"e{u}{v}", (u, v)) for u, v in pairs]
    classes = [
        {"e01", "e23"},
        {"e02", "e13"},
        {"e03", "e12"},
    ]
    H = Multigraph(vertices, edges)
    part = MatchingPartition.of(classes)
    if not is_perfect_one_factorization(H, part):
        raise InternalAssertionError("k4 seed is not a perfect 1-factorization")
    return H, part
