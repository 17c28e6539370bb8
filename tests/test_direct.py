"""The base and parallel constructions read what H records.

With two classes, ``_solve_base`` walks H's recorded incidences from the
least vertex of degree one, or of degree two on a cycle.  The parallel
branch takes each two-edge class's side edges once, from the class and the
recorded star of each end of the pair.  Both give the bags, in order, the
traces and the messages of the walk and the layout they replaced
(``referencedirect``), on every base and parallel step the sweeps reach, on
drawn paths and cycles, and on every fault row of the two constructions.
"""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_minors import solver
from kempe_minors.coloring import MatchingPartition
from kempe_minors.errors import InternalAssertionError
from kempe_minors.graph import Multigraph, edge
from kempe_minors.solver import solve
from referencedirect import reference_solve_base, reference_solve_with_parallel
from test_faults import CONSTRUCTION_FAULTS
from test_peel import census_draws, sweep


def outcome(construct, *args):
    """The bags ``construct`` returns, or the message of its failed check."""
    try:
        return construct(*args)
    except InternalAssertionError as exc:
        return str(exc)


def compare_with_the_reference(monkeypatch):
    """Make every base and parallel step of later solves run beside its
    reference and require equal outcomes and traces; returns the steps'
    count by kind."""
    steps = Counter()
    base, parallel = solver._solve_base, solver._solve_with_parallel

    def checked_base(H, classes, ts):
        got = outcome(base, H, classes, ts)
        assert got == outcome(reference_solve_base, H, classes, ts), ts
        steps["base"] += 1
        return got

    def checked_parallel(H, classes, ts, pair, trace):
        got, want = [], []
        bags = outcome(parallel, H, classes, ts, pair, got)
        ref = outcome(reference_solve_with_parallel, H, classes, ts, pair, want)
        assert (bags, got) == (ref, want), ts
        steps["parallel"] += 1
        trace += got
        return bags

    monkeypatch.setattr(solver, "_solve_base", checked_base)
    monkeypatch.setattr(solver, "_solve_with_parallel", checked_parallel)
    return steps


@pytest.mark.parametrize(
    "instances, counts",
    [(sweep, {"parallel": 121}), (census_draws, {"base": 159, "parallel": 248})],
    ids=["five-vertex-sweep", "census"],
)
def test_every_swept_step_matches_the_reference(monkeypatch, instances, counts):
    steps = compare_with_the_reference(monkeypatch)
    for H, part, T in instances():
        solve(H, part, T)
    assert steps == counts


@st.composite
def two_class_walks(draw):
    """A path of 2-8 edges or an even cycle of 2-8 edges, its edges named in
    drawn order and split alternately into two classes, beside up to two
    isolated vertices.  Vertex names are short strings, "" among them."""
    cycle = draw(st.booleans())
    n = 2 * draw(st.integers(1, 4)) if cycle else draw(st.integers(2, 8))
    names = st.text(alphabet="ab", max_size=3)
    spare = draw(st.integers(0, 2))
    size = n + spare + 1
    verts = draw(st.lists(names, min_size=size, max_size=size, unique=True))
    walk = verts[:n] + [verts[0] if cycle else verts[n]]
    ids = draw(st.permutations([f"e{i}" for i in range(n)]))
    edges = [edge(ids[i], walk[i], walk[i + 1]) for i in range(n)]
    classes = [frozenset(ids[0::2]), frozenset(ids[1::2])]
    if draw(st.booleans()):
        classes.reverse()
    return Multigraph(verts, edges), classes


@settings(max_examples=300, deadline=None, database=None)
@given(two_class_walks())
def test_paths_and_cycles_match_the_reference(case):
    H, classes = case
    part = MatchingPartition.of(classes)
    for T in product(*map(sorted, classes)):
        ts = frozenset(T)
        want = reference_solve_base(H, classes, ts)
        assert solver._solve_base(H, classes, ts) == want, T
        bags, trace = solve(H, part, ts)
        assert (bags.bags, trace.kinds()) == (tuple(want), ("base",)), T


@pytest.mark.parametrize(
    "walk, cycle",
    [
        (["", "a", "b"], False),
        (["b", "a", ""], False),
        (["", "c", "a", "b"], False),
        (["a", "", "b", "c"], False),
        (["", "a", "b", "c"], True),
    ],
    ids=["first-end", "last-end", "end-of-three", "inner", "on-a-cycle"],
)
def test_empty_vertex_id(walk, cycle):
    # "" is the least vertex: the walk starts there when it is a path end
    stops = walk + walk[:1] if cycle else walk
    ids = [f"p{i}" for i in range(len(stops) - 1)]
    H = Multigraph(walk, [edge(p, u, v) for p, u, v in zip(ids, stops, stops[1:])])
    classes = [frozenset(ids[0::2]), frozenset(ids[1::2])]
    for T in product(*map(sorted, classes)):
        ts = frozenset(T)
        bags = solver._solve_base(H, classes, ts)
        assert bags == reference_solve_base(H, classes, ts), T
        assert solve(H, MatchingPartition.of(classes), ts)[0].bags == tuple(bags)


@pytest.mark.parametrize(
    "fault, message",
    [
        row
        for row in CONSTRUCTION_FAULTS
        if row.id.startswith(("base-", "parallel-"))
    ],
)
def test_fault_rows_fail_the_reference_alike(monkeypatch, fault, message):
    monkeypatch.setattr(solver, "_solve_base", reference_solve_base)
    monkeypatch.setattr(solver, "_solve_with_parallel", reference_solve_with_parallel)
    with pytest.raises(InternalAssertionError) as info:
        fault()
    assert str(info.value) == message
