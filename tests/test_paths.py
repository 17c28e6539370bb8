"""Disjoint path systems and minimum separators."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_minors.graph import Multigraph, contract, edge, edge_components
from kempe_minors.paths import (
    _INF,
    PathSystem,
    Separator,
    _incidence_network,
    _Residual,
    disjoint_paths_or_separator,
)
from linegraph import line_graph


def grid_2x3():
    """Two horizontal paths of three vertices joined by three rungs."""
    verts = [f"{r}{c}" for r in "ab" for c in "012"]
    edges = [
        edge("a01", "a0", "a1"),
        edge("a12", "a1", "a2"),
        edge("b01", "b0", "b1"),
        edge("b12", "b1", "b2"),
        edge("r0", "a0", "b0"),
        edge("r1", "a1", "b1"),
        edge("r2", "a2", "b2"),
    ]
    return Multigraph(verts, edges)


@st.composite
def small_graphs(draw):
    """Small multigraphs; a pair may be drawn twice, giving parallel edges."""
    n = draw(st.integers(min_value=3, max_value=6))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=12))
    return Multigraph(
        verts, [edge(f"e{i}-{u}-{v}", u, v) for i, (u, v) in enumerate(sorted(chosen))]
    )


def separates(G, X, us, ts):
    """True iff every U,T-path of G meets the node set X."""
    if (us & ts) - X:
        return False
    seen = set(us - X)
    stack = list(seen)
    while stack:
        n = stack.pop()
        for m in G[n]:
            if m not in X and m not in seen:
                seen.add(m)
                stack.append(m)
    return not (seen & ts)


class TestVertexDisjoint:
    def test_paths_in_line_graph_of_k4(self):
        H = Multigraph(
            ["0", "1", "2", "3"],
            [
                edge("e01", "0", "1"),
                edge("e02", "0", "2"),
                edge("e03", "0", "3"),
                edge("e12", "1", "2"),
                edge("e13", "1", "3"),
                edge("e23", "2", "3"),
            ],
        )
        L = line_graph(H)
        us = {"e01", "e02", "e03"}
        ts = {"e12", "e13", "e23"}
        result = disjoint_paths_or_separator(H, us, ts, 3)
        assert isinstance(result, PathSystem)
        assert len(result) == 3
        used = [n for p in result.paths for n in p]
        assert len(used) == len(set(used))
        for p in result.paths:
            assert p[0] in us
            assert p[-1] in ts
            # internally disjoint from T: only the last node is a target
            assert all(n not in ts for n in p[:-1])
            assert all(p[i + 1] in L[p[i]] for i in range(len(p) - 1))

    def test_separator_on_bottleneck(self):
        # a triangle with a pendant path: every route to the tail edge
        # passes through the bridge node "mx" of the line graph
        H = Multigraph(
            ["a", "b", "m", "x", "y"],
            [
                edge("am", "a", "m"),
                edge("ab", "a", "b"),
                edge("bm", "b", "m"),
                edge("mx", "m", "x"),
                edge("xy", "x", "y"),
            ],
        )
        L = line_graph(H)
        result = disjoint_paths_or_separator(H, {"am", "ab"}, {"xy"}, 2)
        assert isinstance(result, Separator)
        assert result.nodes == {"mx"}
        assert separates(L, result.nodes, frozenset({"am", "ab"}), frozenset({"xy"}))

    def test_separator_and_lift_on_contracted_multigraph(self):
        # contracting ab doubles the edges from the new vertex to m and c;
        # the star there reaches the triangle xyz only through mx and cx
        G = Multigraph(
            ["a", "b", "c", "m", "x", "y", "z"],
            [
                edge("ab", "a", "b"),
                edge("am", "a", "m"),
                edge("bm", "b", "m"),
                edge("ac", "a", "c"),
                edge("bc", "b", "c"),
                edge("mx", "m", "x"),
                edge("cx", "c", "x"),
                edge("xy", "x", "y"),
                edge("xz", "x", "z"),
                edge("yz", "y", "z"),
            ],
        )
        H, w = contract(G, {"ab"})
        assert H.parallel_pair() is not None
        L = line_graph(H)
        us = frozenset(H.edges_at(w))
        ts = frozenset({"xy", "xz", "yz"})
        result = disjoint_paths_or_separator(H, us, ts, 3)
        assert isinstance(result, Separator)
        S = result.nodes
        assert S == {"mx", "cx"}
        assert separates(L, S, us, ts)
        for X in combinations(sorted(L), len(S) - 1):
            assert not separates(L, frozenset(X), us, ts)
        # the lift: the flow's paths, one per separator edge from the star
        # at w, each a path of L(H) on the star side that ends at S
        sides = edge_components(H, set(H.edge_ids) - S)
        assert len(sides) == 2
        (near,) = [side for side in sides if not (side & ts)]
        assert sorted(len(set(p) & S) for p in result.paths) == [1, 1]
        assert {p[-1] for p in result.paths} == S
        used = [n for p in result.paths for n in p]
        assert len(used) == len(set(used))
        for p in result.paths:
            assert p[0] in us and set(p[:-1]) <= near
            assert all(p[i + 1] in L[p[i]] for i in range(len(p) - 1))

    def test_rejects_bad_arguments(self):
        H = grid_2x3()
        with pytest.raises(ValueError):
            disjoint_paths_or_separator(H, set(), {"a01"}, 1)
        with pytest.raises(KeyError):
            disjoint_paths_or_separator(H, {"zz"}, {"a01"}, 1)
        with pytest.raises(ValueError):
            disjoint_paths_or_separator(H, {"a01"}, {"b01"}, 0)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_paths_or_minimum_separator(self, H, data):
        L = line_graph(H)
        nodes = sorted(L)
        us = frozenset(
            data.draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=3))
        )
        ts = frozenset(
            data.draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=3))
        )
        k = data.draw(st.integers(min_value=1, max_value=3))
        result = disjoint_paths_or_separator(H, us, ts, k)
        if isinstance(result, PathSystem):
            assert len(result) == k
            used = [n for p in result.paths for n in p]
            assert len(used) == len(set(used))
            for p in result.paths:
                assert p[0] in us and p[-1] in ts
                assert all(n not in ts for n in p[:-1])
                assert all(p[i + 1] in L[p[i]] for i in range(len(p) - 1))
        else:
            S = result.nodes
            assert len(S) < k
            assert separates(L, S, us, ts)
            # minimality, checked exhaustively against all smaller node sets
            for size in range(len(S)):
                for X in combinations(nodes, size):
                    assert not separates(L, frozenset(X), us, ts)
            # the flow's paths: one per separator node, each from U to its
            # own node of S and meeting S nowhere else
            assert len(result.paths) == len(S)
            assert {p[-1] for p in result.paths} == S
            used = [n for p in result.paths for n in p]
            assert len(used) == len(set(used))
            for p in result.paths:
                assert p[0] in us
                assert all(n not in S for n in p[:-1])
                assert all(p[i + 1] in L[p[i]] for i in range(len(p) - 1))


@st.composite
def graphs_with_isolated_vertices(draw):
    """Multigraphs with parallel edges and uncovered vertices; edge ids are
    drawn in an order unrelated to the ends, so id order and end order
    differ."""
    n = draw(st.integers(min_value=2, max_value=7))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
    ids = draw(st.permutations(range(len(chosen))))
    return Multigraph(
        verts, [edge(f"e{x}", u, v) for x, (u, v) in zip(ids, chosen)]
    )


def arc_by_arc_network(H, us, ts):
    """The incidence network built one ``_Residual.add`` per arc pair: the
    reference layout the bulk build must reproduce."""
    eids = H.edge_ids
    m = len(eids)
    index = {eid: i for i, eid in enumerate(eids)}
    hub = {v: 2 * m + i for i, v in enumerate(H.vertices)}
    src = 2 * m + len(hub)
    snk = src + 1
    net = _Residual([[] for _ in range(snk + 1)], [], [])
    for i in range(m):
        net.add(2 * i, 2 * i + 1, 1)
    for i, e in enumerate(H.edges()):
        for v in e.ends:
            net.add(2 * i + 1, hub[v], _INF)
            net.add(hub[v], 2 * i, _INF)
    for u in sorted(us):
        net.add(src, 2 * index[u], _INF)
    for t in sorted(ts):
        net.add(2 * index[t] + 1, snk, _INF)
    return net


class TestIncidenceNetwork:
    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolated_vertices(), st.data())
    def test_bulk_build_matches_arc_by_arc(self, H, data):
        # the arc ids and every node's arc order fix the flow's search
        # order, hence its paths, separators and the solver's bags
        eids = sorted(H.edge_ids)
        us = frozenset(data.draw(st.sets(st.sampled_from(eids), min_size=1)))
        ts = frozenset(data.draw(st.sets(st.sampled_from(eids), min_size=1)))
        bulk = _incidence_network(H, us, ts)
        ref = arc_by_arc_network(H, us, ts)
        assert bulk.head == ref.head
        assert bulk.cap == ref.cap
        assert len(bulk.out) == len(ref.out)
        for x, (got, want) in enumerate(zip(bulk.out, ref.out)):
            assert got == want, x
