"""The flow on H's own vertices against the flow on H's full incidence
network (``referenceincidence``): the same flow value and, below k, the
same minimum separator, on small drawn graphs and on every flow the solver
makes on one criterion-1 pass and one size-ladder pass."""

from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_minors import solver
from kempe_minors.corpus import sample_transversals, standard_corpus
from kempe_minors.graph import Multigraph, edge
from kempe_minors.paths import Separator, disjoint_paths_or_separator
from referenceincidence import incidence_paths_or_separator
from test_paths import benchmark_workloads, draw_call, graphs_with_isolated_vertices


@st.composite
def thin_middles(draw):
    """Two multigraphs joined by one to three edges, with U drawn from the
    first's edges and T from the second's, so the minimum cut often runs
    through edges of neither.  Vertex names are shuffled, so such an edge's
    ends are numbered in either order."""
    names = draw(st.permutations([f"v{i}" for i in range(8)]))
    left, right = names[:4], names[4:]
    sides = []
    for verts in (left, right):
        pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        sides.append(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8)))
    middle = draw(
        st.lists(st.tuples(st.sampled_from(left), st.sampled_from(right)),
                 min_size=1, max_size=3)
    )
    ids = iter(draw(st.permutations(range(sum(map(len, sides)) + len(middle)))))
    named = [[(f"e{next(ids)}", a, b) for a, b in pairs] for pairs in (*sides, middle)]
    H = Multigraph(names, [edge(*e) for part in named for e in part])
    us = draw(st.sets(st.sampled_from([e for e, _, _ in named[0]]), min_size=1))
    ts = draw(st.sets(st.sampled_from([e for e, _, _ in named[1]]), min_size=1))
    return H, us, ts, draw(st.integers(min_value=1, max_value=5))


def value_and_cut(result):
    """The flow value and, below k, the separator's edge set."""
    if isinstance(result, Separator):
        return len(result.nodes), result.nodes
    return len(result.paths), None


def checked_flow(H, U, T, k):
    """``disjoint_paths_or_separator``, compared with the reference."""
    result = disjoint_paths_or_separator(H, U, T, k)
    want = incidence_paths_or_separator(H, U, T, k)
    assert value_and_cut(result) == value_and_cut(want), (sorted(U), sorted(T), k)
    return result


@settings(max_examples=200, deadline=None)
@given(graphs_with_isolated_vertices(), st.data())
def test_small_graphs(H, data):
    checked_flow(H, *draw_call(H, data, 5))


@settings(max_examples=200, deadline=None)
@given(graphs_with_isolated_vertices(), st.data())
def test_small_graphs_with_u_and_t_overlapping(H, data):
    us, ts, k = draw_call(H, data, 5)
    checked_flow(H, us, ts | {data.draw(st.sampled_from(sorted(us)))}, k)


@settings(max_examples=200, deadline=None)
@given(thin_middles())
def test_small_graphs_with_a_thin_middle(call):
    checked_flow(*call)


def test_every_flow_of_a_corpus_and_a_ladder_pass(monkeypatch):
    # every flow the solver makes on one criterion-1 pass and on one
    # size-ladder pass of the benchmark, at seed 0
    below_k = []

    def recording(H, U, T, k):
        result = checked_flow(H, U, T, k)
        below_k.append(isinstance(result, Separator))
        return result

    monkeypatch.setattr(solver, "disjoint_paths_or_separator", recording)
    for _, (H, part) in standard_corpus():
        for T in sample_transversals(part, 50, seed=0):
            solver.solve(H, part, T)
    corpus = below_k.copy()
    workloads = benchmark_workloads()
    for op in workloads.size_ladder(0, {}):
        assert workloads.document_op(op)[0]
    # one flow per menger step and two per separator step, the first of
    # which is below k; each of the 66 ladder ops makes one flow, at k
    assert (len(corpus), sum(corpus)) == (3181 + 2 * 227, 227)
    assert (len(below_k) - len(corpus), sum(below_k)) == (66, 227)
