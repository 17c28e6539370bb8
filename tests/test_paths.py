"""Disjoint path systems and minimum separators."""

import importlib.util
import sys
import threading
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_minors import paths
from kempe_minors.corpus import sample_transversals, standard_corpus
from kempe_minors.errors import InvalidInputError, UnknownEdgeIdError
from kempe_minors.generators import k4_seed
from kempe_minors.graph import (
    Multigraph,
    arc_table,
    contract,
    edge,
    edge_components,
    number_ends,
)
from kempe_minors.paths import (
    _INF,
    PathSystem,
    Separator,
    _max_flow,
    _peel,
    disjoint_paths_or_separator,
    network,
)
from kempe_minors.solver import solve
from linegraph import line_graph
from referenceflow import reference_max_flow


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
        # the package's own errors, so a caller catching KempeMinorError
        # sees them; an unknown id is named by the least one
        H = grid_2x3()
        nonempty = "^U and T must be nonempty$"
        with pytest.raises(InvalidInputError, match=nonempty):
            disjoint_paths_or_separator(H, set(), {"a01"}, 1)
        with pytest.raises(InvalidInputError, match=nonempty):
            disjoint_paths_or_separator(H, {"a01"}, set(), 1)
        with pytest.raises(UnknownEdgeIdError, match="^unknown edge id 'zz'$"):
            disjoint_paths_or_separator(H, {"zz"}, {"a01"}, 1)
        for us, ts in [({"zz", "a01"}, {"yz"}), ({"yz"}, {"zz", "zy"})]:
            with pytest.raises(UnknownEdgeIdError, match="^unknown edge id 'yz'$"):
                disjoint_paths_or_separator(H, us, ts, 1)
        with pytest.raises(InvalidInputError, match="^k must be positive$"):
            disjoint_paths_or_separator(H, {"a01"}, {"b01"}, 0)
        # a float would reach the flow as a slice bound, and True would run
        # as k = 1
        for k in (2.5, True):
            with pytest.raises(InvalidInputError, match="^k must be an integer$"):
                disjoint_paths_or_separator(H, {"a01"}, {"b01"}, k)

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


def arc_by_arc_network(H, split):
    """H's network for the sorted edge ids ``split``, built one arc pair at
    a time: the reference layout the bulk build must reproduce."""
    n = len(H.vertices)
    hub = {v: x for x, v in enumerate(H.vertices)}
    node = {eid: n + 2 * r for r, eid in enumerate(split)}
    out, head, cap = [[] for _ in range(n + 2 * len(split))], [], []

    def add(a, b, c, back):
        out[a].append(len(head))
        out[b].append(len(head) + 1)
        head.extend((b, a))
        cap.extend((c, back))

    for e in H.edges():
        if e.id in node:
            add(node[e.id], node[e.id] + 1, 1, 0)
        else:
            add(hub[e.ends[0]], hub[e.ends[1]], 1, 1)
    for eid in split:
        for v in H.edge(eid).ends:
            add(node[eid] + 1, hub[v], _INF, 0)
            add(hub[v], node[eid], _INF, 0)
    return out, head, cap


def assert_arc_by_arc(H, split, out, head, cap):
    """The network as built equals the arc-by-arc build for ``split``."""
    ref_out, ref_head, ref_cap = arc_by_arc_network(H, split)
    assert head == ref_head
    assert cap == ref_cap
    assert [list(row) for row in out] == ref_out


def terminals(H, us, ts):
    """The split edges, U and T in id order; the start nodes, in-nodes of
    sorted U; and the set of end nodes, out-nodes of T."""
    split = sorted(us | ts)
    node = {eid: len(H.vertices) + 2 * r for r, eid in enumerate(split)}
    return split, [node[u] for u in sorted(us)], {node[t] + 1 for t in ts}


def with_source_and_sink(out, head, cap, starts, ends):
    """A copy of the network with a source arc into every start and a sink
    arc out of every end, uncapacitated, in that order: the single-source,
    single-sink form of the same flow problem."""
    out = [list(arcs) for arcs in out] + [[], []]
    head, cap = list(head), list(cap)
    src, snk = len(out) - 2, len(out) - 1
    for a, b in [(src, x) for x in starts] + [(x, snk) for x in sorted(ends)]:
        out[a].append(len(head))
        out[b].append(len(head) + 1)
        head += (b, a)
        cap += (_INF, 0)
    return out, head, cap, src, snk


def augmented_networks(calls):
    """Run each (H, U, T, k) call; return, per call, a copy of what it
    handed to the augmentation and that network's ``out`` list itself."""
    seen = []

    def recording(out, head, cap, starts, ends, k):
        copy = [list(arcs) for arcs in out], list(head), list(cap)
        seen.append((*copy, list(starts), set(ends), out))
        return _max_flow(out, head, cap, starts, ends, k)

    with mock.patch.object(paths, "_max_flow", recording):
        for call in calls:
            disjoint_paths_or_separator(*call)
    return seen


def rescan_peel(out, head, cap, base, origins, ends):
    """One walk from each origin to an end node, scanning each node's arcs
    from the start at every step: the reference the cursor peel must
    reproduce."""
    found = []
    for s in origins:
        nodes, arcs = [s], []
        while nodes[-1] not in ends:
            j = next(j for j in out[nodes[-1]] if cap[j ^ 1] > base[j ^ 1])
            cap[j ^ 1] -= 1
            x = head[j]
            if x in nodes:
                i = nodes.index(x)
                del nodes[i + 1:]
                del arcs[i:]
            else:
                nodes.append(x)
                arcs.append(j)
        found.append(arcs)
    return found


def draw_call(H, data, max_k):
    """Random nonempty U and T of H's edge ids and a k in 1..max_k."""
    eids = sorted(H.edge_ids)
    us = frozenset(data.draw(st.sets(st.sampled_from(eids), min_size=1)))
    ts = frozenset(data.draw(st.sets(st.sampled_from(eids), min_size=1)))
    return us, ts, data.draw(st.integers(min_value=1, max_value=max_k))


def drawn_network(H, data, max_k):
    """A drawn call's network as built, its starts, ends and k."""
    us, ts, k = draw_call(H, data, max_k)
    split, starts, ends = terminals(H, us, ts)
    return (*arc_by_arc_network(H, split), starts, ends, k)


class TestUnitArcNetwork:
    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolated_vertices(), st.data())
    def test_bulk_build_matches_arc_by_arc(self, H, data):
        # the arc ids and every node's arc order fix the flow's search
        # order, hence its paths, separators and the solver's bags; each
        # call, with its own U and T, builds its own network
        u1, t1, _ = draw_call(H, data, 1)
        u2, t2, _ = draw_call(H, data, 1)
        seen = augmented_networks([(H, u1, t1, 1), (H, u2, t2, 1)])
        (*_, first), (*_, second) = seen
        assert first is not second
        for (out, head, cap, starts, ends, _), us, ts in zip(seen, (u1, u2), (t1, t2)):
            split, *terminal_nodes = terminals(H, us, ts)
            assert [starts, ends] == terminal_nodes
            assert_arc_by_arc(H, split, out, head, cap)

    def test_flows_leave_the_graph_as_built(self):
        # the network starts from H's arc table: a success, a separator and
        # a call with U and T overlapping on one H write nothing into it
        H = grid_2x3()
        calls = [
            ({"a01", "r0"}, {"b12", "r2"}, 2),
            ({"a01", "a12"}, {"b12"}, 2),
            ({"a01", "r1"}, {"r1", "b12"}, 2),
        ]
        kinds = [type(disjoint_paths_or_separator(H, *call)) for call in calls]
        assert kinds == [PathSystem, Separator, PathSystem]
        fresh = Multigraph(H.vertices, H.edges())
        assert arc_table(H) == arc_table(fresh)
        assert list(map(H.edges_at, H.vertices)) == list(map(fresh.edges_at, H.vertices))
        # and the next call's network is still the arc-by-arc one
        us, ts = {"a12", "r2"}, {"b01"}
        ((out, head, cap, _, _, built),) = augmented_networks([(H, us, ts, 1)])
        split = terminals(H, us, ts)[0]
        assert_arc_by_arc(H, split, out, head, cap)
        # the hubs no split edge touches keep H's own rows
        rows, _ = arc_table(H)
        touched = {x for pair in number_ends(H, split) for x in pair}
        assert [built[v] is rows[v] for v in range(len(rows))] == [
            v not in touched for v in range(len(rows))
        ]

    def test_every_network_of_a_corpus_and_a_ladder_pass(self):
        # every network the solver builds on one criterion-1 pass and on
        # one size-ladder pass of the benchmark, at seed 0
        built = []

        def checked_network(H, us, ts):
            out, head, cap, starts, ends = network(H, us, ts)
            split, *terminal_nodes = terminals(H, us, ts)
            assert_arc_by_arc(H, split, out, head, cap)
            assert [starts, ends] == terminal_nodes
            built.append(split)
            return out, head, cap, starts, ends

        workloads = benchmark_workloads()
        with mock.patch.object(paths, "network", checked_network):
            for _, (H, part) in standard_corpus():
                for T in sample_transversals(part, 50, seed=0):
                    solve(H, part, T)
            for op in workloads.size_ladder(0, {}):
                assert workloads.document_op(op)[0]
        # one network per flow: one per menger step, two per separator step
        # and one per ladder op
        assert len(built) == 3181 + 2 * 227 + 66

    @pytest.mark.parametrize(
        "us, ts, bad",
        [
            # e015 sorts between e01 and e02, zz past every id of K_4
            ({"e015"}, {"e23"}, "e015"),
            ({"e01"}, {"zz"}, "zz"),
        ],
    )
    def test_network_rejects_unknown_ids(self, us, ts, bad):
        H, _ = k4_seed()
        with pytest.raises(UnknownEdgeIdError, match=f"^unknown edge id '{bad}'$"):
            network(H, us, ts)

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolated_vertices(), st.data())
    def test_flow_is_read_against_the_capacities_as_built(self, H, data):
        # the peel reads the flow on arc j as cap[j ^ 1] - base[j ^ 1]; that
        # rests on augmenting keeping each pair's capacity sum fixed.  Read
        # so, the flow is skew-symmetric, within capacity and conserved
        # everywhere but at the starts, which send the flow value, and the
        # ends, which take it
        out, head, cap, starts, ends, k = drawn_network(H, data, 4)
        base = cap.copy()
        flow, _ = _max_flow(out, head, cap, starts, ends, k)
        assert flow <= k
        f = [cap[j ^ 1] - base[j ^ 1] for j in range(len(cap))]
        for j in range(0, len(cap), 2):
            assert cap[j] + cap[j + 1] == base[j] + base[j + 1], j
            assert f[j] == -f[j + 1] and f[j] <= base[j] and f[j + 1] <= base[j + 1]
        sent = [sum(f[j] for j in out[x]) for x in range(len(out))]
        assert all(sent[x] in (0, 1) for x in starts)
        assert sum(sent[x] for x in starts) == flow == -sum(sent[x] for x in ends)
        assert not any(sent[x] for x in range(len(out)) if x not in ends | set(starts))
        peeled = _peel(out, head, cap, base, starts, ends)
        assert len(peeled) == flow
        # one path per start that sends a unit, in the order of the starts,
        # over arcs that carried flow, and through every edge at most once
        firsts = [head[arcs[0] ^ 1] for arcs in peeled]
        assert firsts == [x for x in starts if sent[x]]
        used = []
        for arcs in peeled:
            assert head[arcs[-1]] in ends
            assert all(head[a] == head[b ^ 1] for a, b in zip(arcs, arcs[1:]))
            assert all(f[j] > 0 for j in arcs)
            used += [j >> 1 for j in arcs if j < 2 * len(H.edge_ids)]
        assert len(used) == len(set(used))

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolated_vertices(), st.data())
    def test_cursor_peel_matches_rescan_peel(self, H, data):
        out, head, cap, starts, ends, k = drawn_network(H, data, 5)
        base = cap.copy()
        _max_flow(out, head, cap, starts, ends, k)
        rest = cap.copy()
        # start x = in-node of edge i sends a unit iff arc 2i, its in -> out
        # arc and the first of its row, carries flow
        origins = [x for x in starts if cap[out[x][0] ^ 1]]
        assert _peel(out, head, cap, base, starts, ends) == rescan_peel(
            out, head, rest, base, origins, ends
        )
        assert cap == rest

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolated_vertices(), st.data())
    def test_starts_and_ends_act_as_a_source_and_a_sink(self, H, data):
        # the same network with a source and a sink gives the same flow and
        # the same minimum cut.  The paths may differ: a single source grows
        # one search tree where the starts grow one each.  So the multi-start
        # paths are checked on their own: flow many start-end arc paths that
        # share no edge, each stopping at its first end node
        out, head, cap, starts, ends, k = drawn_network(H, data, 5)
        s_out, s_head, s_cap, src, snk = with_source_and_sink(
            out, head, cap, starts, ends
        )
        base = cap.copy()
        flow, mark = _max_flow(out, head, cap, starts, ends, k)
        s_flow, s_mark = _max_flow(s_out, s_head, s_cap, [src], [snk], k)
        assert flow == s_flow
        if flow < k:
            assert [x != -1 for x in mark] == [x != -1 for x in s_mark[:src]]
        peeled = _peel(out, head, cap, base, starts, ends)
        assert len(peeled) == flow
        used = []
        for arcs in peeled:
            nodes = [head[arcs[0] ^ 1]] + [head[j] for j in arcs]
            assert nodes[0] in starts
            assert all(head[a] == head[b ^ 1] for a, b in zip(arcs, arcs[1:]))
            assert nodes[-1] in ends
            assert not ends.intersection(nodes[:-1])
            used += [j >> 1 for j in arcs if j < 2 * len(H.edge_ids)]
        assert len(used) == len(set(used))


def benchmark_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReferenceFlow:
    """The forest flow gives the value of the one-path-per-search flow it
    replaced and, below k, the same residual reach of the starts, so the
    same minimum cut; only the choice among maximum flows may differ."""

    @staticmethod
    def checked_flow(out, head, cap, starts, ends, k):
        """``_max_flow``, run beside the reference on a copy of ``cap``."""
        rest = cap.copy()
        flow, mark = _max_flow(out, head, cap, starts, ends, k)
        want, want_mark = reference_max_flow(out, head, rest, starts, ends, k)
        assert flow == want
        if flow < k:
            assert [x != -1 for x in mark] == [x != -1 for x in want_mark]
        return flow, mark

    @settings(max_examples=200, deadline=None)
    @given(graphs_with_isolated_vertices(), st.data())
    def test_small_graphs(self, H, data):
        self.checked_flow(*drawn_network(H, data, 5))

    def test_every_flow_of_a_corpus_and_a_ladder_pass(self):
        # every flow the solver makes on one criterion-1 pass and on one
        # size-ladder pass of the benchmark, at seed 0
        below_k = []

        def recording(*args):
            flow, mark = self.checked_flow(*args)
            below_k.append(flow < args[-1])
            return flow, mark

        workloads = benchmark_workloads()
        with mock.patch.object(paths, "_max_flow", recording):
            for _, (H, part) in standard_corpus():
                for T in sample_transversals(part, 50, seed=0):
                    solve(H, part, T)
            corpus = below_k.copy()
            for op in workloads.size_ladder(0, {}):
                assert workloads.document_op(op)[0]
        # one flow per menger step and two per separator step, the first of
        # which is below k; each of the 66 ladder ops makes one flow
        assert (len(corpus), sum(corpus)) == (3181 + 2 * 227, 227)
        assert len(below_k) == len(corpus) + 66


class TestPerCallNetwork:
    """Every call builds its own network and keeps no state, so calls on
    one graph from many threads return what fresh calls return."""

    def test_the_module_keeps_no_state(self):
        # no module-level container could hold a network or a flow past
        # the call that built it
        assert not [
            name
            for name, value in vars(paths).items()
            if not name.startswith("__") and isinstance(value, (list, dict, set))
        ]

    def test_threads_get_what_fresh_calls_return(self):
        # more threads than cores, switching as often as the interpreter
        # allows, over two graphs and two stars on one of them
        graphs = [grid_2x3(), grid_2x3()]
        jobs = [
            (0, {"a01", "r0"}, {"b12", "r2"}, 2),
            (1, {"a01", "r0"}, {"b12", "r2"}, 2),
            (0, {"a12"}, {"b01"}, 1),
        ]
        want = [disjoint_paths_or_separator(graphs[i], *job) for i, *job in jobs]
        failures = []

        def worker(offset):
            for step in range(300):
                n = (step + offset) % len(jobs)
                i, *job = jobs[n]
                if disjoint_paths_or_separator(graphs[i], *job) != want[n]:
                    failures.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
