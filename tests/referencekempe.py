"""verify_kempe as one union-find pass per class pair: the tests' oracle.

The package's check walks each pair's Kempe chain along the two classes'
mate lists and first rejects a class that is not a matching.  This is the
general check it replaced: each pair's edges go through ``union_find`` on
an index of the classes' ends of its own, numbered in the order it met
them, and the union is connected iff the joins number one less than the
vertices it covers (an empty union covers none).  It asks nothing of the
classes, so on every partition into matchings the tests compare whole
verdicts with it, the first failing pair included.
"""

from itertools import combinations

from kempe_minors.coloring import Verdict
from kempe_minors.graph import union_find


def reference_verify_kempe(H, part):
    index = {}
    ends = [
        [
            (index.setdefault(u, len(index)), index.setdefault(w, len(index)))
            for u, w in (H.edge(eid).ends for eid in cls)
        ]
        for cls in part.classes
    ]
    covers = [{x for pair in pairs for x in pair} for pairs in ends]
    for i, j in combinations(range(part.k), 2):
        joins, _ = union_find(len(index), ends[i] + ends[j])
        if joins != len(covers[i] | covers[j]) - 1:
            return Verdict(False, (f"union of classes {i} and {j} is not connected",))
    return Verdict(True)
