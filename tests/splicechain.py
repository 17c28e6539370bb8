"""A chain of spliced circulants cut thin at its last bridge, which only the
tests build."""

import random

from kempe_minors.generators import delete_vertex, gen_circulant, splice


def splice_chain(m, k, blocks, glue="greatest"):
    """Splice ``blocks`` copies of the circulant on shifts 0..k-1 modulo m into
    a chain, then delete the end of the last bridge's edge ``f0`` that lies
    outside the newest block.

    With ``glue="greatest"`` each new block is glued at the greatest vertex
    of the newest one (ids not prefixed "a."), whose neighbours end no
    earlier bridge.  So the deletion leaves one cut of k - 1 edges, the last
    bridge's other edges, between the newest block (ids "b.") and the rest.

    With ``glue="least"`` it is glued at the least vertex of the newest
    block ("b00" at the first splice, then "b.b01"), which ends no bridge:
    a block glued at its "b00" has its bridge ends at top vertices "b.t…".
    The glued vertex's neighbours end the previous bridge too, so the
    deleted vertex ends both the last bridge and the one before it.
    """
    block = gen_circulant(m, tuple(range(k)))
    H, part = block
    pick = max if glue == "greatest" else min
    for _ in range(blocks - 1):
        at = pick(v for v in H.vertices if not v.startswith("a."))
        H, part = splice((H, part), at, block, block[0].vertices[0])
    return delete_vertex(H, part, H.edge("f0").ends[0])


def last_block_transversals(part, count, seed):
    """``count`` seeded transversals, each edge drawn from the newest block."""
    rng = random.Random(seed)
    return [
        frozenset(
            rng.choice(sorted(e for e in cls if e.startswith("b.")))
            for cls in part.classes
        )
        for _ in range(count)
    ]
