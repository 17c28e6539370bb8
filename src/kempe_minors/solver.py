"""The main constructive algorithm.

Given a multigraph H, a partition of E(H) into matchings whose pairwise
unions are connected, and a transversal T, produce k connected, pairwise
disjoint, pairwise incident edge sets of H, each containing exactly one edge
of T.  Such a system is exactly a complete minor of the line graph rooted at
T, with the bags as branching sets.

The construction recurses on the number of edges.  At each level one flow
on H's vertex hubs (``paths``) either routes k paths of the line graph,
pairwise sharing no edge, from the edge star of a maximum-degree vertex to
T, or finds a minimum separator S.  Removing S leaves two edge sides, the
star side and the far side holding T; the solver contracts the star side,
recurses, and lifts the answer back along the flow's own paths, one from
the star to each separator edge.  Parallel edges and the complete-graph
endgame have dedicated direct constructions.

``solve`` keeps one memo entry per live graph H, gone with it: the
partition of H that last passed the instance checks (matching partition,
Kempe property).  A call on the same (H, partition) objects skips both
checks, whatever the call order.  T and the output are checked on every
call.  Every recursion level re-checks the structural facts it relies on
and the final system is verified before it is returned; a failure surfaces
as InternalAssertionError, never as a silent wrong answer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Any, Iterable

from .coloring import (
    MatchingPartition,
    Verdict,
    verify_kempe,
    verify_matching_partition,
    verify_transversal,
)
from .errors import InternalAssertionError, InvalidInputError, UnknownEdgeIdError
from .graph import (
    EdgeId,
    Multigraph,
    VertexId,
    contract,
    edge_components,
    number_ends,
    union_find,
)
from .paths import PathSystem, disjoint_paths_or_separator


@dataclass(frozen=True)
class BagSystem:
    """The answer: k disjoint connected pairwise incident edge sets."""

    bags: tuple[frozenset[EdgeId], ...]

    @staticmethod
    def of(bags: Iterable[Iterable[EdgeId]]) -> "BagSystem":
        return BagSystem(tuple(frozenset(b) for b in bags))

    def __len__(self) -> int:
        return len(self.bags)


@dataclass(frozen=True)
class TraceStep:
    """One reduction step; ``details`` names the witnesses of that level."""

    kind: str  # base | parallel | menger | separator | complete
    details: dict[str, Any] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]

    def kinds(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.steps)


def _require(cond: bool, fact: str) -> None:
    if not cond:
        raise InternalAssertionError(fact)


# ---------------------------------------------------------------------------
# verification


def verify_solution(
    H: Multigraph,
    part: MatchingPartition,
    T: Iterable[EdgeId],
    bags: BagSystem,
) -> Verdict:
    """Accept iff bags form a valid rooted system for (H, partition, T).

    Each bag's connectivity is checked by ``graph.union_find`` on H's vertex
    numbers, and two bags are incident iff their covered numbers meet.  A
    bag is scanned for duplicates only if it meets earlier bags' edges.
    """
    ts = frozenset(T)
    violations: list[str] = []
    if len(bags) != part.k:
        violations.append(f"{len(bags)} bags for {part.k} classes")
    n = len(H.vertices)
    used: set[EdgeId] = set()
    # vertex numbers covered by each non-empty bag of known edges, in bag
    # order; only these bags take part in the pairwise incidence check
    covers: dict[int, set[int]] = {}
    for i, bag in enumerate(bags.bags):
        if not bag:
            violations.append(f"bag {i} is empty")
            continue
        try:
            pairs = number_ends(H, bag)
        except UnknownEdgeIdError:
            bad = sorted(e for e in bag if e not in H)
            violations.append(f"bag {i} holds unknown edges {bad}")
            continue
        if not used.isdisjoint(bag):
            for eid in sorted(bag & used):
                first = next(j for j in covers if eid in bags.bags[j])
                violations.append(f"edge {eid!r} occurs in bags {first} and {i}")
        used |= bag
        cover = covers[i] = {x for pair in pairs for x in pair}
        if union_find(n, pairs)[0] != len(cover) - 1:
            violations.append(f"bag {i} is not a connected edge set")
        hits = bag & ts
        if len(hits) != 1:
            violations.append(
                f"bag {i} holds {len(hits)} transversal edges ({sorted(hits)})"
            )
    for i, j in combinations(covers, 2):
        if covers[i].isdisjoint(covers[j]):
            violations.append(f"bags {i} and {j} are not incident")
    for eid in sorted(ts - used):
        violations.append(f"transversal edge {eid!r} is in no bag")
    return Verdict(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# base case k <= 2


def _solve_base(
    H: Multigraph, classes: list[frozenset[EdgeId]], ts: frozenset[EdgeId]
) -> list[frozenset[EdgeId]]:
    k = len(classes)
    if k == 0:
        return []
    if k == 1:
        (t,) = ts
        return [frozenset({t})]
    # k == 2 only at the top level, so the classes partition E(H), which is
    # one path or cycle.  Walk it from its least end (a cycle from its least
    # vertex) and cut it into two contiguous runs, one transversal edge each;
    # the runs meet at a cut vertex, hence they are incident.
    _require(max(H.degrees()) <= 2, "two-matching union has a vertex of degree > 2")
    end = H.least_vertex_of_degree(1)
    v = end if end is not None else H.least_vertex_of_degree(2)
    walk: list[EdgeId] = []
    used: set[EdgeId] = set()
    while True:
        eid = next((e for e in H.edges_at(v) if e not in used), None)
        if eid is None:
            break
        walk.append(eid)
        used.add(eid)
        v = H.edge(eid).other(v)
    _require(len(walk) == H.num_edges(), "two-matching union is not connected")
    pos = [n for n, eid in enumerate(walk) if eid in ts]
    _require(len(pos) == 2, "transversal does not hit the pair union twice")
    i, j = pos
    if end is not None:
        first, second = walk[: i + 1], walk[i + 1:]
    else:
        first, second = walk[i:j], walk[j:] + walk[:i]
    return [frozenset(first), frozenset(second)]


# ---------------------------------------------------------------------------
# parallel edges


def _solve_with_parallel(
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

    def side_edge(i: int, at: VertexId) -> EdgeId:
        hits = classes[i].intersection(H.edges_at(at))
        _require(len(hits) == 1, f"class {i} does not split across the parallel pair")
        return min(hits)

    xe = {i: side_edge(i, x) for i in two}
    ye = {i: side_edge(i, y) for i in two}
    t_at_x = [i for i in two if (ts & classes[i]) == {xe[i]}]
    if len(t_at_x) != 1:
        x, y, xe, ye = y, x, ye, xe
        t_at_x = [i for i in two if (ts & classes[i]) == {xe[i]}]
    _require(len(t_at_x) == 1, "transversal pattern outside the case analysis")
    a = {i: H.edge(xe[i]).other(x) for i in two}
    b = {i: H.edge(ye[i]).other(y) for i in two}
    order = [t_at_x[0]]
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


# ---------------------------------------------------------------------------
# complete-graph endgame


def assert_complete_fallback(H: Multigraph, k: int) -> None:
    """Confirm the leftover case: H is the simple complete graph on k vertices.

    The paper's lemma: for k >= 3, a simple H with a Kempe partition into k
    classes and no vertex of degree k is K_k.  ``solve_complete`` certifies
    its input here too.  Vertices covered by no edge are ignored.  Each
    conclusion is checked from the degrees H recorded when built: maximum
    degree k-1, exactly k covered vertices and uniform degrees.  With
    simplicity these give the last one, every pair adjacent: each of the
    delta + 1 covered vertices has delta distinct neighbours among the
    other delta.  A failed check raises InternalAssertionError; within
    ``solve`` that is unreachable.
    """
    covered = len(H.covered_vertices())
    degrees = H.degrees() - {0}
    delta = max(degrees, default=0)
    _require(delta < k, "a vertex of full degree is present")
    _require(H.is_simple(), "parallel edges present in the fallback")
    _require(delta == k - 1, f"maximum degree {delta} is not k-1")
    _require(covered == delta + 1, f"{covered} covered vertices, need {delta + 1}")
    _require(degrees == {delta}, "degrees are not uniform")


def solve_complete(H: Multigraph, T: Iterable[EdgeId]) -> BagSystem:
    """Direct construction on a simple complete graph.

    T may be any set of n edges of the complete graph on n >= 3 vertices,
    not necessarily a matching transversal.  Returns n bags, each with one
    T-edge.  H is certified by ``assert_complete_fallback(H, n)``, whose
    failure message an InvalidInputError carries.
    """
    ts = frozenset(T)
    n = len(H.covered_vertices())
    if n < 3:
        raise InvalidInputError(f"need at least 3 vertices, have {n}")
    if len(ts) != n:
        raise InvalidInputError(f"|T| = {len(ts)}, need n = {n}")
    number_ends(H, ts)
    try:
        assert_complete_fallback(H, n)
    except InternalAssertionError as exc:
        raise InvalidInputError(
            f"graph is not a simple complete graph: {exc}"
        ) from None
    return BagSystem(tuple(_complete_bags(H, ts)))


def _complete_bags(H: Multigraph, ts: frozenset[EdgeId]) -> list[frozenset[EdgeId]]:
    """The construction behind solve_complete, on a checked complete graph.

    Each level removes one pivot vertex v and prescribes n - 1 edges of the
    smaller complete graph; K_3 takes its three T-edges as bags.  On the way
    down each level records a fix-up (case, star of v, witnesses), and on
    the way up the fix-ups turn the smaller graph's bags into this level's,
    deepest first.
    """
    # on H's vertex numbers, which order the vertices as their names do
    ends = dict(zip(H.edge_ids, number_ends(H, H.edge_ids)))
    by_pair = dict(zip(ends.values(), ends))

    def eid_of(u: int, v: int) -> EdgeId:
        return by_pair[(u, v) if u < v else (v, u)]

    verts = sorted(set(chain.from_iterable(ends.values())))
    # each vertex's prescribed neighbours, the far ends of its edges in ts;
    # each level toggles the edges ts gained or lost since the last one
    t_nbrs: dict[int, set[int]] = {u: set() for u in verts}
    last_ts: frozenset[EdgeId] = frozenset()
    fixups: list[tuple[str, frozenset[EdgeId], tuple]] = []
    while len(verts) > 3:
        for t in ts ^ last_ts:
            u, w = ends[t]
            t_nbrs[u] ^= {w}
            t_nbrs[w] ^= {u}
        last_ts = ts
        v = next((u for u in verts if len(t_nbrs[u]) <= 2), None)
        _require(v is not None, "no vertex of prescribed degree at most two")
        nbrs = sorted(t_nbrs[v])

        if len(nbrs) == 2:
            x, y = nbrs
            rest = ts - {eid_of(v, x), eid_of(v, y)}
            if len(t_nbrs[x]) - 1 == len(rest):
                # rest is a spanning star at x; one of its leaves has
                # prescribed degree one, so pivot on that leaf instead.
                leaves = [u for u in verts if u not in (v, x, y)]
                _require(bool(leaves), "spanning star without a free leaf")
                v, nbrs = min(leaves), [x]

        star = frozenset(eid_of(u, v) for u in verts if u != v)
        if len(nbrs) == 2:
            # v is x's prescribed neighbour, so z misses it and x
            z = next((z for z in verts if z != x and z not in t_nbrs[x]), None)
            _require(z is not None, "no free edge at the degree-two pivot")
            xz = eid_of(x, z)
            fixups.append(("two", star - {eid_of(v, x)}, (xz, eid_of(v, x))))
            ts = rest | {xz}
        elif len(nbrs) == 1:
            fixups.append(("one", star, ()))
            ts = ts - {eid_of(v, nbrs[0])}
        else:
            _require(len(nbrs) == 0, "pivot vertex has more than two prescribed neighbors")
            xy = min(ts)
            fixups.append(("zero", star, (v, xy, ts)))
            ts = ts - {xy}
        verts.remove(v)

    bags = [frozenset({t}) for t in sorted(ts)]
    for case, star, witnesses in reversed(fixups):
        if case == "one":
            bags.append(star)
        elif case == "two":
            # the v-x edge joins the bag of the substitute x-z edge
            xz, vx = witnesses
            fi = next(i for i, bag in enumerate(bags) if xz in bag)
            grown = bags.pop(fi) | {vx}
            bags += [grown, star]
        else:
            v, xy, level_ts = witnesses
            # every level's bags cover its graph's edges: K_3's bags are its
            # three edges and each fix-up keeps its whole star, so xy has one
            bag_f = bags.pop(next(i for i, bag in enumerate(bags) if xy in bag))
            wz_cands = sorted((bag_f & level_ts) - {xy})
            _require(len(wz_cands) == 1, "bag holds more than one prescribed edge")
            x, y = ends[xy]
            p, q = ends[wz_cands[0]]
            _require(not ({p, q} <= {x, y}), "prescribed edges coincide")
            w = min({p, q} - {x, y})
            # put w on x's side of the bag split by removing xy; swap x and y
            # if the component containing w sees y but not x
            comps = edge_components(H, bag_f - {xy})
            vs = H.vertices
            cov = H.covered(next(c for c in comps if vs[w] in H.covered(c)))
            if vs[x] not in cov and vs[y] in cov:
                x, y = y, x
            vw_vy = {eid_of(v, w), eid_of(v, y)}
            bags += [(bag_f - {xy}) | vw_vy, (star - vw_vy) | {xy}]
    return bags


# ---------------------------------------------------------------------------
# main recursion


# H -> the partition of H that last passed the partition and Kempe checks;
# both are immutable, so the pair still passes when it comes back.  H is
# held weakly and its partition by H's entry, so each live graph keeps one
# entry, and the entry and that partition go away with H.
_checked: weakref.WeakKeyDictionary[Multigraph, MatchingPartition]
_checked = weakref.WeakKeyDictionary()


def _reject_unless(name: str, verdict: Verdict) -> None:
    if not verdict:
        raise InvalidInputError(
            f"{name} verification failed: " + "; ".join(verdict.violations)
        )


def solve(
    H: Multigraph, part: MatchingPartition, T: Iterable[EdgeId]
) -> tuple[BagSystem, ReductionTrace]:
    """Solve an instance; the returned system always passes verify_solution.

    Parallel edges and the complete endgame are branches of the same
    recursion.  The partition and the Kempe property are checked once per
    (H, part) object pair: a call with H and the partition of H that last
    passed them skips both checks, whatever was solved in between.  T and
    the output are checked on every call.  A failed input check raises
    InvalidInputError, a failed output check InternalAssertionError.
    """
    ts = frozenset(T)
    if _checked.get(H) is not part:
        # in order, stopping at the first failure: the Kempe check needs
        # known edges
        _reject_unless("matching partition", verify_matching_partition(H, part))
        _reject_unless("kempe", verify_kempe(H, part))
        _checked[H] = part
    _reject_unless("transversal", verify_transversal(part, ts))
    trace: list[TraceStep] = []
    bags = _solve_rec(H, list(part.classes), ts, trace)
    system = BagSystem(tuple(bags))
    verdict = verify_solution(H, part, ts, system)
    _require(bool(verdict), "output fails verification: " + "; ".join(verdict.violations))
    return system, ReductionTrace(tuple(trace))


def _solve_rec(
    H: Multigraph,
    classes: list[frozenset[EdgeId]],
    ts: frozenset[EdgeId],
    trace: list[TraceStep],
) -> list[frozenset[EdgeId]]:
    k = len(classes)
    if k <= 2:
        trace.append(TraceStep("base", {"k": k}))
        return _solve_base(H, classes, ts)

    pair = H.parallel_pair()
    if pair is not None:
        return _solve_with_parallel(H, classes, ts, pair, trace)

    # k >= 3, so a vertex of degree k is covered
    pivot = H.least_vertex_of_degree(k)
    if pivot is not None:
        return _solve_menger(H, classes, ts, pivot, trace)

    assert_complete_fallback(H, k)
    trace.append(TraceStep("complete", {"k": k, "max_deg": k - 1}))
    return _complete_bags(H, ts)


def _solve_menger(
    H: Multigraph,
    classes: list[frozenset[EdgeId]],
    ts: frozenset[EdgeId],
    v: VertexId,
    trace: list[TraceStep],
) -> list[frozenset[EdgeId]]:
    k = len(classes)
    U = frozenset(H.edges_at(v))
    result = disjoint_paths_or_separator(H, U, ts, k)

    if isinstance(result, PathSystem):
        trace.append(TraceStep("menger", {"vertex": v, "star": U, "paths": result.paths}))
        return [frozenset(p) for p in result.paths]

    S = result.nodes
    _require(len(S) == k - 1, f"separator has {len(S)} edges, expected k-1 = {k - 1}")
    avoiding = [i for i, c in enumerate(classes) if not (c & S)]
    _require(
        len(avoiding) == 1,
        f"{len(avoiding)} classes avoid the separator, expected exactly 1",
    )
    fi = avoiding[0]

    # H - S has two edge sides: the star side, which is contracted, and the
    # far side, which holds T
    sides = edge_components(H, set(H.edge_ids) - S)
    _require(len(sides) == 2, f"separator leaves {len(sides)} edge sides, expected 2")
    side_c, side_d = sides
    u_rest = U - S
    if not (u_rest <= side_c):
        side_c, side_d = side_d, side_c
    _require(u_rest <= side_c, "star edges fall on both sides of the separator")
    cov_c, cov_d = H.covered(side_c), H.covered(side_d)
    _require(v in cov_c, "pivot vertex is not on the star side")
    _require(bool(classes[fi] & side_c), "avoiding class misses the star side")
    _require(bool(classes[fi] & side_d), "avoiding class misses the far side")
    _require(not (ts & side_c), "transversal edge on the star side")
    _require(bool(ts & side_d), "no transversal edge on the far side")
    for eid in sorted(S):
        a, b = H.edge(eid).ends
        _require(
            (a in cov_c and b in cov_d) or (a in cov_d and b in cov_c),
            f"separator edge {eid!r} does not cross the sides",
        )

    # the flow's paths run from the star to S, one per separator edge and
    # otherwise on the star side; each lifts its edge's bag back to v
    path_of: dict[EdgeId, frozenset[EdgeId]] = {}
    for p in result.paths:
        hits = sorted(set(p) & S)
        _require(len(hits) == 1, "lift path does not use exactly one separator edge")
        _require(H.edge(p[0]).covers(v), "lift path does not start at the pivot")
        _require(p[-1] == hits[0], "lift path does not end at the far side")
        _require(set(p[:-1]) <= side_c, "lift path leaves the star side")
        path_of[hits[0]] = frozenset(p)
    _require(len(path_of) == k - 1, "lift paths do not cover the separator")

    # contract the star side and recurse
    H_far, _ = contract(H, side_c)
    sub_classes = [c - side_c for c in classes]
    _require(all(sub_classes), "a restricted class became empty")
    _require(ts <= set(H_far.edge_ids), "transversal lost by contraction")
    _require(H_far.num_edges() < H.num_edges(), "recursion does not descend")

    trace.append(
        TraceStep(
            "separator",
            {
                "vertex": v,
                "star": U,
                "separator": S,
                "avoiding_class": fi,
                "side_c": side_c,
                "side_d": side_d,
                "lift_paths": dict(sorted(path_of.items())),
            },
        )
    )

    sub = _solve_rec(H_far, sub_classes, ts, trace)

    lifted: list[frozenset[EdgeId]] = []
    for bag in sub:
        extra: set[EdgeId] = set()
        for eid in bag & S:
            extra |= path_of[eid]
        lifted.append(bag | extra)
    return lifted
