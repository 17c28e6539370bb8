"""Multigraph against the two-table constructor it replaced
(``tests/referencegraph.py``): the same facts on every edge list without a
fault, and the same error class on every list with exactly one.  The arc
table each multigraph records is checked against its definition, and an
edge list given in id order or out of it records the same tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_minors.corpus import standard_corpus
from kempe_minors.errors import (
    DuplicateEdgeIdError,
    KempeMinorError,
    LoopEdgeError,
    UnknownEndpointError,
)
from kempe_minors.graph import Multigraph, arc_table, contract, number_ends
from referencegraph import ReferenceMultigraph
from test_serialization import ladder_graphs


def facts(H, numbered):
    """What is compared: the edge ids, each edge's id and ends, the star of
    every vertex, the numbered ends, the parallel pair, the least vertex of
    each degree and the set of degrees."""
    ids = H.edge_ids
    top = max(map(len, map(H.edges_at, H.vertices)), default=0)
    return (
        ids,
        [(e.id, e.ends) for e in H.edges()],
        [H.edges_at(v) for v in H.vertices],
        numbered(ids),
        H.parallel_pair(),
        [H.least_vertex_of_degree(d) for d in range(top + 2)],
        H.degrees(),
    )


def defined_arcs(H):
    """H's arc table from its definition: arc 2i runs along the i-th edge
    in id order from its lesser-numbered end to its greater, arc 2i + 1
    back; each vertex lists the arcs leaving it, ascending."""
    number = {v: x for x, v in enumerate(H.vertices)}
    rows = [[] for _ in H.vertices]
    heads = []
    for i, e in enumerate(H.edges()):
        a, b = sorted(number[v] for v in e.ends)
        rows[a].append(2 * i)
        rows[b].append(2 * i + 1)
        heads += [b, a]
    return tuple(map(tuple, rows)), tuple(heads)


def recorded(H):
    """The tables H recorded: numbered ends in their order, and arcs."""
    rows, heads = arc_table(H)
    assert (rows, heads) == defined_arcs(H)
    assert all(list(row) == sorted(row) for row in rows)
    ids = H.edge_ids
    assert [H.edges_at(v) for v in H.vertices] == [
        tuple(ids[j >> 1] for j in row) for row in rows
    ]
    return list(H._ends.items()), rows, heads


def assert_order_free(vertices, pairs):
    """The list as given and in id order record the same tables, each as
    its definition says."""
    shuffled = Multigraph(vertices, pairs)
    in_order = Multigraph(vertices, sorted(pairs))
    assert list(in_order._ends) == sorted(in_order._ends)
    assert recorded(shuffled) == recorded(in_order)


def outcome(build, vertices, pairs):
    """The graph's facts, or the class of the error its constructor raised."""
    try:
        H = build(vertices, pairs)
    except KempeMinorError as exc:
        return type(exc)
    if isinstance(H, ReferenceMultigraph):
        return facts(H, H.number_ends)
    return facts(H, lambda F: number_ends(H, F))


def faults(vertices, pairs):
    """Every fault of the edge list, edge by edge in the order given and,
    within an edge, in the order the constructor tests them."""
    found = []
    seen = set()
    for eid, (u, w) in pairs:
        if eid in seen:
            found.append(DuplicateEdgeIdError)
        if not {u, w} <= set(vertices):
            found.append(UnknownEndpointError)
        if u == w:
            found.append(LoopEdgeError)
        seen.add(eid)
    return found


@st.composite
def edge_lists(draw):
    """Vertices and an edge list on them: ids out of order, ends in either
    order, parallel edges, and up to two faults made in it, each a repeated
    id, an unknown end or a loop."""
    n = draw(st.integers(min_value=2, max_value=7))
    vertices = [f"v{i}" for i in range(n)]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    drawn = draw(st.lists(ends.filter(lambda p: p[0] != p[1]), max_size=12))
    ids = draw(st.permutations([f"e{i:02}" for i in range(len(drawn))]))
    pairs = [list(p) for p in zip(ids, drawn)]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if pairs else 0):
        j = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
        u, w = pairs[j][1]
        kind = draw(st.sampled_from(["repeat", "unknown", "loop"]))
        if kind == "repeat":
            pairs[j][0] = pairs[draw(st.integers(0, len(pairs) - 1))][0]
        elif kind == "unknown":
            pairs[j][1] = draw(st.sampled_from([("zz", w), (u, "zz")]))
        else:
            pairs[j][1] = (u, u)
    return vertices, [tuple(p) for p in pairs]


class TestMatchesTheReplacedConstructor:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_edge_lists(self, drawn):
        vertices, pairs = drawn
        got = outcome(Multigraph, vertices, pairs)
        found = faults(vertices, pairs)
        if len(found) <= 1:
            assert got == outcome(ReferenceMultigraph, vertices, pairs)
        if not found:
            assert_order_free(vertices, pairs)
        if found:
            # the first faulty edge in the order given decides the error
            assert got is found[0]

    @pytest.mark.parametrize(
        "graphs, count",
        [
            pytest.param(lambda: [H for _, (H, _) in standard_corpus()], 70, id="corpus"),
            pytest.param(lambda: [H for H, _ in ladder_graphs()], 18, id="size-ladder"),
        ],
    )
    def test_generated_graphs_and_a_contraction(self, graphs, count):
        graphs = graphs()
        assert len(graphs) == count
        for H in graphs:
            # the edge list in reverse, each edge's ends reversed too
            pairs = [(e.id, e.ends[::-1]) for e in reversed(list(H.edges()))]
            expected = outcome(ReferenceMultigraph, H.vertices, pairs)
            assert outcome(Multigraph, H.vertices, pairs) == expected
            assert facts(H, lambda F: number_ends(H, F)) == expected
            assert_order_free(H.vertices, pairs)
            assert recorded(H) == recorded(Multigraph(H.vertices, pairs))
            # contract the first edge with its parallels, which leaves no
            # loop, and compare with the reference built from the same list
            ends = H.edge(H.edge_ids[0]).ends
            F = {e.id for e in H.edges() if e.ends == ends}
            H2, w = contract(H, F)
            named = [w if v in ends else v for v in H.vertices]
            pairs2 = [
                (e.id, tuple(w if v in ends else v for v in e.ends))
                for e in H.edges()
                if e.id not in F
            ]
            expected = outcome(ReferenceMultigraph, named, pairs2)
            assert facts(H2, lambda F: number_ends(H2, F)) == expected
            assert recorded(H2) == recorded(Multigraph(named, pairs2[::-1]))
