"""Two parts of the parallel-edge case as they were before: the tests'
references.

``reference_parallel_pair`` is Multigraph.parallel_pair as it was before
multigraphs recorded their parallel pair at construction.  The package's
graph scans its edges once when it is built, keyed by their numbered ends;
this is the scan it replaced, run on every call and keyed by the edge
records' vertex-name pairs.

``reference_solve_with_parallel`` is the parallel branch as it was when it
peeled one singleton class per recursion level, rebuilding H without that
class's edge each time.  The package's branch peels every singleton class
in one step.  Both are kept so the tests can compare the package with them
on the same graphs.
"""

from itertools import combinations

from kempe_minors import solver
from kempe_minors.graph import Multigraph
from kempe_minors.solver import TraceStep, _solve_with_parallel


def reference_parallel_pair(H):
    seen = {}
    for e in H.edges():
        if e.ends in seen:
            return (seen[e.ends], e.id)
        seen[e.ends] = e.id
    return None


def reference_solve_with_parallel(H, classes, ts, pair, trace):
    """Peel the least-indexed singleton class beside the parallel pair,
    solve the rest of H by recursion through ``solver._solve_rec`` and add
    the peeled edge as the last bag.  Unless T is pairwise incident; then,
    or when no singleton class is left, the level is the package's own.

    Patched over ``solver._solve_with_parallel``, it makes every level of a
    solve peel one class at a time, as the recursion looks the name up on
    each call."""
    others = [i for i, c in enumerate(classes) if not c & set(pair)]

    def incident(p, q):
        return bool(set(H.edge(p).ends) & set(H.edge(q).ends))

    singles = [i for i in others if len(classes[i]) == 1]
    if singles and not all(incident(p, q) for p, q in combinations(sorted(ts), 2)):
        i = singles[0]
        (g,) = classes[i]
        trace.append(TraceStep("parallel", {"case": "peel-singleton", "edge": g}))
        rest = [c for j, c in enumerate(classes) if j != i]
        H_rest = Multigraph(H.vertices, (e for e in H.edges() if e.id != g))
        sub = solver._solve_rec(H_rest, rest, ts - {g}, trace)
        return sub + [frozenset({g})]
    return _solve_with_parallel(H, classes, ts, pair, trace)
