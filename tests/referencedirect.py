"""The base and parallel constructions as they were before they read the
facts H records: the tests' reference.

The package's base case walks H's recorded incidences from the least vertex
of degree one, or of degree two on a cycle, and counts the walk against
H's edge count; this is the walk it replaced, which built its own adjacency
from the two classes and found the path's ends by sorting.  The package's
parallel branch takes each two-edge class's side edges once, from the
class and the recorded star of each end of the pair, and swaps the two
sides if the transversal pattern fits the other way; this is the branch it
replaced, which scanned every class edge for each side and laid the whole
pattern out a second time with the ends swapped.  Both are the old code
under new names, kept so the tests can compare bags, traces and messages
on the same inputs.
"""

from __future__ import annotations

from itertools import combinations

from kempe_minors.graph import EdgeId, Multigraph, VertexId
from kempe_minors.solver import TraceStep, _require


def reference_solve_base(
    H: Multigraph, classes: list[frozenset[EdgeId]], ts: frozenset[EdgeId]
) -> list[frozenset[EdgeId]]:
    k = len(classes)
    if k == 0:
        return []
    if k == 1:
        (t,) = ts
        return [frozenset({t})]
    # k == 2: the whole edge set is one path or cycle.  Walk it and cut it
    # into two contiguous runs, one transversal edge each; the runs meet at
    # a cut vertex, hence they are incident.
    all_edges = classes[0] | classes[1]
    deg: dict[VertexId, list[EdgeId]] = {}
    for eid in sorted(all_edges):
        for v in H.edge(eid).ends:
            deg.setdefault(v, []).append(eid)
    endpoints = sorted(v for v, ids in deg.items() if len(ids) == 1)
    _require(
        all(len(ids) <= 2 for ids in deg.values()),
        "two-matching union has a vertex of degree > 2",
    )
    start = endpoints[0] if endpoints else min(deg)
    walk: list[EdgeId] = []
    used: set[EdgeId] = set()
    v = start
    while True:
        nxt = [e for e in deg[v] if e not in used]
        if not nxt:
            break
        eid = min(nxt)
        walk.append(eid)
        used.add(eid)
        v = H.edge(eid).other(v)
    _require(len(walk) == len(all_edges), "two-matching union is not connected")
    pos = sorted(walk.index(t) for t in ts)
    _require(len(pos) == 2, "transversal does not hit the pair union twice")
    i, j = pos
    if endpoints:
        first, second = walk[: i + 1], walk[i + 1:]
    else:
        first, second = walk[i:j], walk[j:] + walk[:i]
    return [frozenset(first), frozenset(second)]


def reference_solve_with_parallel(
    H: Multigraph,
    classes: list[frozenset[EdgeId]],
    ts: frozenset[EdgeId],
    pair: tuple[EdgeId, EdgeId],
    trace: list[TraceStep],
) -> list[frozenset[EdgeId]]:
    e, f = pair
    x, y = H.edge(e).ends
    ie, jf = (next((i for i, c in enumerate(classes) if g in c), None) for g in pair)
    _require(None not in (ie, jf), "an edge of the parallel pair is in no class")
    _require(ie != jf, "parallel edges share a class")
    _require(
        classes[ie] == {e} and classes[jf] == {f},
        "classes of a parallel pair are not singletons",
    )

    others = [i for i in range(len(classes)) if i not in (ie, jf)]
    _require(
        all(len(classes[i]) <= 2 for i in others),
        "a class besides the parallel pair has more than two edges",
    )

    def incident(p: EdgeId, q: EdgeId) -> bool:
        return bool(set(H.edge(p).ends) & set(H.edge(q).ends))

    if all(incident(p, q) for p, q in combinations(sorted(ts), 2)):
        trace.append(TraceStep("parallel", {"case": "pairwise-incident-T"}))
        return [frozenset({t}) for t in sorted(ts)]

    # A singleton class's edge meets every other edge, so it rejoins as a bag
    # of its own: all are peeled at once, as one class per level would be.
    singles = [classes[i] for i in others if len(classes[i]) == 1]
    for (g,) in singles:
        trace.append(TraceStep("parallel", {"case": "peel-singleton", "edge": g}))

    two = [i for i in others if len(classes[i]) == 2]
    ell = len(two)
    _require(2 <= ell <= 3, f"unclassified parallel structure (ell={ell})")

    def side_edges(i: int, at: VertexId) -> EdgeId:
        hits = [eid for eid in sorted(classes[i]) if H.edge(eid).covers(at)]
        _require(len(hits) == 1, f"class {i} does not split across the parallel pair")
        return hits[0]

    def layout(x0: VertexId, y0: VertexId):
        xe = {i: side_edges(i, x0) for i in two}
        ye = {i: side_edges(i, y0) for i in two}
        a = {i: H.edge(xe[i]).other(x0) for i in two}
        b = {i: H.edge(ye[i]).other(y0) for i in two}
        t_at_x = [i for i in two if (ts & classes[i]) == {xe[i]}]
        return xe, ye, a, b, t_at_x

    xe, ye, a, b, t_at_x = layout(x, y)
    if len(t_at_x) != 1:
        xe, ye, a, b, t_at_x = layout(y, x)
    _require(len(t_at_x) == 1, "transversal pattern outside the case analysis")
    first = t_at_x[0]
    order = [first]
    while len(order) < ell:
        succ = [j for j in two if j not in order and a[j] == b[order[-1]]]
        _require(len(succ) == 1, "two-edge classes do not chain cyclically")
        order.append(succ[0])

    big = frozenset({xe[order[0]], xe[order[1]], ye[order[0]]})
    bags = [frozenset({e}), frozenset({f}), big]
    bags += [frozenset({ye[i]}) for i in order[1:]]
    trace.append(
        TraceStep("parallel", {"case": f"ell={ell}", "pair": (e, f), "big_bag": big})
    )
    return bags + singles[::-1]
