"""Edge components by depth-first search: the tests' reference partition.

The package finds edge components with its union-find; this is the search
it used before, kept so the tests can compare the two on the same sets.
"""


def search_components(H, F):
    """Partition ``F`` into maximal connected edge sets, sorted by least id."""
    fs = sorted(set(F))
    at = {}
    for eid in fs:
        for v in H.edge(eid).ends:
            at.setdefault(v, []).append(eid)
    unseen = set(fs)
    parts = []
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
