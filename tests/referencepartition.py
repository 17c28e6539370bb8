"""verify_matching_partition as it was before a partition was accepted by
per-class checks: the tests' reference verdict.

The package's check accepts a partition from each class's numbered ends,
its size and the size of the classes' union, and walks edge by edge only a
partition that fails; this is the check it replaced, which walked every
edge of every partition.  It is kept so the tests can compare whole
verdicts, every violation in order, on the same partitions.
"""

from kempe_minors.coloring import Verdict


def reference_verify_matching_partition(H, part):
    violations = []
    seen = {}
    for i, cls in enumerate(part.classes):
        if not cls:
            violations.append(f"class {i} is empty")
        known = []  # the class's edges of H, in order
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
        at = {}
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
