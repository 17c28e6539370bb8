"""verify_kempe as it was before multigraphs numbered their own vertices:
the tests' reference verdict.

The package's check runs each pair's union-find on the vertex numbers H
fixed when it was built; this is the check it replaced, which numbered the
classes' ends into one index of its own, in the order it met them.  It is
kept so the tests can compare whole verdicts, the first failing pair
included, on the same partitions.
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
