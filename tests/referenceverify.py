"""verify_solution as it was before its running used-edge set and its
``isdisjoint`` checks: the tests' reference verdict.

The package's checker skips the per-edge duplicate scan for a bag that
meets no earlier bag and tests incidence without building intersections;
this is the checker it replaced, kept so the tests can compare whole
verdicts, every message in order, on the same systems.
"""

from itertools import combinations

from kempe_minors.coloring import Verdict
from kempe_minors.graph import union_find


def reference_verify_solution(H, part, T, bags):
    ts = frozenset(T)
    violations = []
    if len(bags) != part.k:
        violations.append(f"{len(bags)} bags for {part.k} classes")
    seen = {}
    covers = {}
    for i, bag in enumerate(bags.bags):
        if not bag:
            violations.append(f"bag {i} is empty")
            continue
        bad = sorted(e for e in bag if e not in H)
        if bad:
            violations.append(f"bag {i} holds unknown edges {bad}")
            continue
        index = {}
        pairs = [
            (index.setdefault(u, len(index)), index.setdefault(w, len(index)))
            for u, w in (H.edge(eid).ends for eid in bag)
        ]
        covers[i] = frozenset(index)
        for eid in sorted(bag):
            if eid in seen:
                violations.append(
                    f"edge {eid!r} occurs in bags {seen[eid]} and {i}"
                )
            else:
                seen[eid] = i
        if union_find(len(index), pairs)[0] != len(index) - 1:
            violations.append(f"bag {i} is not a connected edge set")
        hits = sorted(bag & ts)
        if len(hits) != 1:
            violations.append(
                f"bag {i} holds {len(hits)} transversal edges ({hits})"
            )
    for i, j in combinations(covers, 2):
        if not (covers[i] & covers[j]):
            violations.append(f"bags {i} and {j} are not incident")
    unused = sorted(ts - set(seen))
    for eid in unused:
        violations.append(f"transversal edge {eid!r} is in no bag")
    return Verdict(not violations, tuple(violations))
