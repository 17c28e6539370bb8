"""The standard instance corpus used by the acceptance harness.

Circulants for moduli 5, 7, 11, 13 at orders 3 through 5, the K_4 seed,
splices of every same-order pair, and a vertex deletion of each of those.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import Iterator

from .coloring import MatchingPartition
from .generators import Instance, delete_vertex, gen_circulant, k4_seed, splice

MODULI = (5, 7, 11, 13)
ORDERS = (3, 4, 5)


def standard_corpus() -> list[tuple[str, Instance]]:
    named: list[tuple[str, Instance]] = []
    for m in MODULI:
        for k in ORDERS:
            named.append((f"circulant-m{m}-k{k}", gen_circulant(m, tuple(range(k)))))
    named.append(("k4", k4_seed()))

    by_order: dict[int, list[tuple[str, Instance]]] = {}
    for name, inst in named:
        by_order.setdefault(inst[1].k, []).append((name, inst))
    spliced: list[tuple[str, Instance]] = []
    for k, group in sorted(by_order.items()):
        for (na, a), (nb, b) in combinations(group, 2):
            va = a[0].vertices[0]
            vb = b[0].vertices[0]
            spliced.append((f"splice-{na}-{nb}", splice(a, va, b, vb)))
    named += spliced

    deleted = []
    for name, inst in list(named):
        H = inst[0]
        # For splices, delete an endpoint of the first bridge edge: that
        # leaves the remaining bridges as a thin two-sided cut, the only
        # corpus shape that can exercise the separator branch.
        v = H.edge("f0").ends[0] if "f0" in H else H.vertices[0]
        deleted.append((f"delete-{name}", delete_vertex(H, inst[1], v)))
    return named + deleted


def all_transversals(part: MatchingPartition) -> Iterator[frozenset]:
    for combo in product(*(sorted(cls) for cls in part.classes)):
        yield frozenset(combo)


def sample_transversals(
    part: MatchingPartition, count: int, seed: int = 0
) -> list[frozenset]:
    """Up to ``count`` uniformly random transversals, or all when fewer exist."""
    if math.prod(map(len, part.classes)) <= count:
        return list(all_transversals(part))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(frozenset(rng.choice(sorted(cls)) for cls in part.classes))
    return out
