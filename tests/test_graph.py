"""Multigraph primitives: records, vertex numbers and the other facts
recorded at construction, components, line graphs, contraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_minors.errors import (
    DisconnectedContractionSetError,
    DuplicateEdgeIdError,
    LoopEdgeError,
    UnknownEdgeIdError,
    UnknownEndpointError,
    UnknownVertexError,
    WouldCreateLoopError,
)
from kempe_minors.graph import (
    EdgeRecord,
    Multigraph,
    contract,
    edge,
    edge_components,
    number_ends,
)
from kempe_minors.generators import delete_vertex, gen_circulant
from linegraph import line_graph
from referenceparallel import reference_parallel_pair
from searchcomponents import search_components


def path_graph(n):
    verts = [f"v{i}" for i in range(n)]
    edges = [edge(f"p{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    return Multigraph(verts, edges)


def triangle():
    return Multigraph(
        ["a", "b", "c"],
        [edge("ab", "a", "b"), edge("bc", "b", "c"), edge("ac", "a", "c")],
    )


@st.composite
def small_graphs(draw):
    """Simple graphs on up to 7 vertices with at least one edge."""
    n = draw(st.integers(min_value=2, max_value=7))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    edges = [edge(f"e{u}-{v}", u, v) for u, v in sorted(chosen)]
    return Multigraph(verts, edges)


@st.composite
def multigraphs(draw):
    """Multigraphs on up to 8 vertices, parallel edges and isolated vertices
    allowed, with up to 14 edges."""
    n = draw(st.integers(min_value=2, max_value=8))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=14))
    edges = [edge(f"e{i:02}", u, v) for i, (u, v) in enumerate(chosen)]
    return Multigraph(verts, edges)


def reachable(L, part):
    """The nodes of ``part`` reachable in L(H)[part] from its least node."""
    seen = {min(part)}
    stack = [min(part)]
    while stack:
        for n in L[stack.pop()] & part:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


class TestEdgeRecord:
    def test_ends_are_normalized(self):
        # the graph orders each edge's ends; its records read them back
        for given in [EdgeRecord("e", ("b", "a")), ("e", ("b", "a"))]:
            H = Multigraph(["a", "b"], [given])
            assert H.edge("e") == EdgeRecord("e", ("a", "b"))
            assert number_ends(H, ["e"]) == [(0, 1)]

    def test_loop_is_rejected(self):
        with pytest.raises(LoopEdgeError, match="^edge 'e' would be a loop at 'a'$"):
            Multigraph(["a", "b"], [edge("f", "a", "b"), edge("e", "a", "a")])

    def test_covers_and_other(self):
        e = edge("e", "x", "y")
        assert e.covers("x") and e.covers("y") and not e.covers("z")
        assert e.other("x") == "y" and e.other("y") == "x"
        with pytest.raises(UnknownVertexError):
            e.other("z")


class TestMultigraph:
    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(DuplicateEdgeIdError):
            Multigraph(["a", "b", "c"], [edge("e", "a", "b"), edge("e", "b", "c")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownEndpointError):
            Multigraph(["a"], [edge("e", "a", "b")])

    def test_first_faulty_edge_decides(self):
        # each list has two faulty edges; the first in the order given
        # decides the error, whatever the kinds of the two faults
        for edges, error in [
            ([edge("e", "a", "zz"), edge("f", "b", "b")], UnknownEndpointError),
            ([edge("e", "a", "b"), edge("e", "b", "c"), edge("f", "c", "c")],
             DuplicateEdgeIdError),
            ([edge("f", "c", "c"), edge("e", "a", "zz")], LoopEdgeError),
            ([edge("f", "c", "c"), edge("f", "a", "b")], LoopEdgeError),
        ]:
            with pytest.raises(error):
                Multigraph(["a", "b", "c"], edges)

    def test_basic_queries(self):
        H = triangle()
        assert H.vertices == ("a", "b", "c")
        assert Multigraph(["c", "a", "b", "a"], []).vertices == ("a", "b", "c")
        assert H.edge_ids == ("ab", "ac", "bc")
        assert "ab" in H and "zz" not in H
        assert H.edge("bc").ends == ("b", "c")
        assert H.edges_at("a") == ("ab", "ac")
        assert [H.degree(v) for v in H.vertices] == [2, 2, 2]
        assert H.num_edges() == 3
        with pytest.raises(UnknownEdgeIdError):
            H.edge("zz")
        with pytest.raises(UnknownVertexError):
            H.edges_at("z")

    def test_covered(self):
        H = triangle()
        assert H.covered({"ab"}) == {"a", "b"}
        assert H.covered(["ab", "ac"]) == {"a", "b", "c"}
        assert H.covered(()) == frozenset()
        # the least unknown id is named, whatever the set's order
        with pytest.raises(UnknownEdgeIdError, match="^unknown edge id 'xx'$"):
            H.covered({"zz", "yy", "xx"})
        assert H.covered_vertices() == {"a", "b", "c"}
        H2 = Multigraph(["a", "b", "isolated"], [edge("ab", "a", "b")])
        assert H2.covered_vertices() == {"a", "b"}

    def test_parallel_pair(self):
        H = Multigraph(
            ["x", "y", "z"],
            [edge("e", "x", "y"), edge("f", "y", "x"), edge("g", "y", "z")],
        )
        assert H.parallel_pair() == ("e", "f")
        assert not H.is_simple()
        assert triangle().is_simple() and triangle().parallel_pair() is None
        # the first repeat in id order, whatever order the edges arrive in:
        # 'c' repeats 'b', before 'd' repeats 'a'
        H2 = Multigraph(
            ["w", "x", "y", "z"],
            [edge("d", "w", "x"), edge("c", "y", "z"), edge("b", "z", "y"),
             edge("a", "x", "w")],
        )
        assert H2.parallel_pair() == ("b", "c")

    def test_least_vertex_of_degree(self):
        H = Multigraph(
            ["d", "c", "b", "a", "iso"],
            [edge("ab", "a", "b"), edge("bc", "b", "c"), edge("bd", "b", "d")],
        )
        assert [H.least_vertex_of_degree(d) for d in range(5)] == [
            "iso", "a", None, "b", None,
        ]

    def test_without_vertex(self):
        H = triangle()
        H3 = H.without_vertex("a")
        assert H3.edge_ids == ("bc",) and H3.vertices == ("b", "c")
        with pytest.raises(UnknownVertexError):
            H.without_vertex("z")


def assert_recorded(H):
    """Every fact H recorded when built matches its definition: each edge's
    numbered ends, read back through ``H.vertices``, are its ends; the
    parallel pair is the reference scan's; the least vertex of each degree
    is the least vertex of that degree; the degrees are those of its
    vertices; and ``H.vertices`` and ``H.edge_ids`` are one tuple each."""
    vertices = H.vertices
    assert H.vertices is vertices
    assert H.edge_ids is H.edge_ids
    for eid, (a, b) in zip(H.edge_ids, number_ends(H, H.edge_ids)):
        assert (vertices[a], vertices[b]) == H.edge(eid).ends
    pair = reference_parallel_pair(H)
    assert H.parallel_pair() == pair and H.is_simple() == (pair is None)
    top = max((H.degree(v) for v in vertices), default=0)
    for d in range(top + 2):
        least = min((v for v in vertices if H.degree(v) == d), default=None)
        assert H.least_vertex_of_degree(d) == least
    assert H.degrees() == {H.degree(v) for v in vertices}


class TestNumberEnds:
    def test_triangle(self):
        H = triangle()
        assert number_ends(H, ["bc", "ab", "bc"]) == [(1, 2), (0, 1), (1, 2)]
        assert number_ends(H, []) == []

    def test_unknown_ids_name_the_least(self):
        H = triangle()
        for F, bad in [
            (["ab", "zz", "yy"], "yy"),
            (["yy", "ab", "zz"], "yy"),
            ({"zz", "yy", "xx"}, "xx"),
        ]:
            with pytest.raises(UnknownEdgeIdError, match=f"^unknown edge id '{bad}'$"):
                number_ends(H, F)
        # a one-shot iterator is spent by then: the id that failed is named
        with pytest.raises(UnknownEdgeIdError, match="^unknown edge id 'yy'$"):
            number_ends(H, iter(["ab", "yy"]))

    @settings(max_examples=100, deadline=None)
    @given(multigraphs(), st.data())
    def test_derived_graphs_read_back(self, H, data):
        assert_recorded(H)
        F = data.draw(st.sets(st.sampled_from(H.edge_ids))) if H.edge_ids else set()
        assert_recorded(Multigraph(H.vertices, (e for e in H.edges() if e.id not in F)))
        assert_recorded(H.without_vertex(data.draw(st.sampled_from(H.vertices))))
        if H.edge_ids:
            # an edge with all its parallels: contracting them merges its two
            # ends into a fresh vertex and shifts the later positions
            ends = H.edge(data.draw(st.sampled_from(H.edge_ids))).ends
            H2, w = contract(H, {e.id for e in H.edges() if e.ends == ends})
            assert w in H2.vertices and not set(ends) & set(H2.vertices)
            assert_recorded(H2)

    @pytest.mark.parametrize("m, k, v", [(5, 3, "b0"), (7, 4, "t3"), (11, 5, "b04")])
    def test_vertex_deletion_reads_back(self, m, k, v):
        H2, _ = delete_vertex(*gen_circulant(m, tuple(range(k))), v)
        assert_recorded(H2)


class TestEdgeComponents:
    def test_path_is_one_component(self):
        H = path_graph(5)
        assert len(edge_components(H, H.edge_ids)) == 1

    def test_split_path(self):
        H = path_graph(5)
        parts = edge_components(H, {"p0", "p1", "p3"})
        assert parts == (frozenset({"p0", "p1"}), frozenset({"p3"}))

    def test_empty_set(self):
        assert edge_components(path_graph(3), set()) == ()

    def test_unknown_edge_names_the_least_id(self):
        with pytest.raises(UnknownEdgeIdError, match="^unknown edge id 'q1'$"):
            edge_components(path_graph(3), {"p0", "q2", "q1"})

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_components_partition_and_connect(self, H, data):
        # checked against the line graph, which shares no code with the
        # union-find: L(H)[F]'s components are exactly the edge components
        F = data.draw(st.sets(st.sampled_from(sorted(H.edge_ids))))
        parts = edge_components(H, F)
        L = line_graph(H)
        # the parts partition F, in order of their least edge id
        assert (set().union(*parts) if parts else set()) == set(F)
        assert sum(len(p) for p in parts) == len(F)
        assert [min(p) for p in parts] == sorted(min(p) for p in parts)
        # each part is connected in L(H), and no L(H) edge joins two parts
        for p in parts:
            assert reachable(L, p) == p
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not any(L[e] & parts[j] for e in parts[i])

    @settings(max_examples=100, deadline=None)
    @given(multigraphs(), st.data())
    def test_matches_the_search(self, H, data):
        F = data.draw(st.sets(st.sampled_from(H.edge_ids))) if H.edge_ids else set()
        assert edge_components(H, F) == search_components(H, F)


class TestLineGraph:
    def test_triangle_line_graph(self):
        L = line_graph(triangle())
        assert set(L) == {"ab", "ac", "bc"}
        assert "ac" in L["ab"] and "bc" in L["ab"]
        assert sum(len(ns) for ns in L.values()) == 2 * 3

    def test_parallel_edges_are_adjacent_nodes(self):
        H = Multigraph(["x", "y"], [edge("e", "x", "y"), edge("f", "x", "y")])
        L = line_graph(H)
        assert "f" in L["e"] and "e" in L["f"]

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_degree_identity(self, H):
        # the line-graph degree of edge xy is d(x) + d(y) - 2
        L = line_graph(H)
        for e in H.edges():
            x, y = e.ends
            assert len(L[e.id]) == H.degree(x) + H.degree(y) - 2


class TestContract:
    def test_contract_one_edge(self):
        H = triangle()
        H2, w = contract(H, {"ab"})
        assert set(H2.edge_ids) == {"ac", "bc"}
        assert H2.edge("ac").ends == tuple(sorted(("c", w)))
        assert len(H2.vertices) == 2

    def test_disconnected_set_rejected(self):
        # the message counts the set's edge components: none for an empty set
        H = path_graph(5)
        for F, n in [({"p0", "p3"}, 2), (set(), 0)]:
            message = f"^contraction set has {n} edge components, need exactly 1$"
            with pytest.raises(DisconnectedContractionSetError, match=message):
                contract(H, F)

    def test_chord_becomes_loop(self):
        H = triangle()
        with pytest.raises(WouldCreateLoopError):
            contract(H, {"ab", "bc"})  # "ac" would join two merged vertices

    def test_fresh_vertex_name_avoids_collision(self):
        H = Multigraph(
            ["w", "w0", "x"], [edge("a", "w", "w0"), edge("b", "w0", "x")]
        )
        H2, w = contract(H, {"a"})
        assert w == "w1"

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_ids_preserved_and_vertex_count(self, H, data):
        parts = edge_components(H, H.edge_ids)
        comp = data.draw(st.sampled_from(parts))
        F = data.draw(
            st.sets(st.sampled_from(sorted(comp)), min_size=1)
        )
        sub = edge_components(H, F)
        if len(sub) != 1:
            return
        merged = H.covered(F)
        loops = any(
            set(H.edge(e).ends) <= merged for e in H.edge_ids if e not in F
        )
        if loops:
            with pytest.raises(WouldCreateLoopError):
                contract(H, F)
            return
        H2, w = contract(H, F)
        assert set(H2.edge_ids) == set(H.edge_ids) - set(F)
        assert len(H2.vertices) == len(H.vertices) - len(merged) + 1
        assert H2.has_vertex(w) and not H.has_vertex(w)
