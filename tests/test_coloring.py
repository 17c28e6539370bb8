"""Matching partitions, connectivity of pair unions, transversals, and the
end-counting identity."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempe_minors.coloring import (
    MatchingPartition,
    Verdict,
    verify_kempe,
    verify_matching_partition,
    verify_transversal,
)
from kempe_minors.corpus import standard_corpus
from kempe_minors.errors import KempeMinorError, UnknownEdgeIdError
from kempe_minors.generators import gen_circulant, k4_seed
from kempe_minors.graph import Multigraph, edge, edge_components
from kempe_minors.serialization import parse_instance
from endcount import pair_end_count, pair_subgraph_ends
from referencekempe import reference_verify_kempe
from referencepartition import reference_verify_matching_partition
from test_fuzz import edited_instances


def square_with_colors():
    H = Multigraph(
        ["a", "b", "c", "d"],
        [
            edge("ab", "a", "b"),
            edge("bc", "b", "c"),
            edge("cd", "c", "d"),
            edge("ad", "a", "d"),
        ],
    )
    part = MatchingPartition.of([{"ab", "cd"}, {"bc", "ad"}])
    return H, part


@st.composite
def partitioned_multigraphs(draw):
    """A multigraph (parallel edges allowed) with a random partition of its
    edges into k <= 5 classes; classes may be empty, may share endpoints,
    and their pair unions may be disconnected."""
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"v{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=12,
        )
    )
    H = Multigraph(names, [edge(f"e{i}", u, v) for i, (u, v) in enumerate(pairs)])
    k = draw(st.integers(min_value=1, max_value=5))
    owner = draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    classes = [{f"e{i}" for i, c in enumerate(owner) if c == j} for j in range(k)]
    return H, MatchingPartition.of(classes)


@st.composite
def matching_partitioned_multigraphs(draw):
    """A multigraph whose edges are exactly a random partition into k <= 5
    matchings: each class pairs up a prefix of a shuffled vertex list.
    Classes may be empty, two classes may join the same two vertices (a
    digon), and pair unions may be paths, cycles or disconnected."""
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"v{i}" for i in range(n)]
    k = draw(st.integers(min_value=1, max_value=5))
    edges, classes = [], []
    for c in range(k):
        order = draw(st.permutations(names))
        size = draw(st.integers(min_value=0, max_value=n // 2))
        cls = set()
        for t in range(size):
            eid = f"e{c}-{t}"
            edges.append(edge(eid, order[2 * t], order[2 * t + 1]))
            cls.add(eid)
        classes.append(cls)
    return Multigraph(names, edges), MatchingPartition.of(classes)


def first_non_matching_class(H, part):
    """The violation for the first class two of whose edges share an end,
    by the definition of a matching."""
    for i, cls in enumerate(part.classes):
        ends = [v for eid in cls for v in H.edge(eid).ends]
        if len(set(ends)) != len(ends):
            return (f"class {i} is not a matching",)
    return ()


def first_disconnected_union(H, part):
    """The Kempe property by its definition: the violation for the first
    pair, in combinations order, whose union is not one edge component."""
    for i, j in combinations(range(part.k), 2):
        if len(edge_components(H, part.classes[i] | part.classes[j])) != 1:
            return (f"union of classes {i} and {j} is not connected",)
    return ()


class TestMatchingPartition:
    def test_accessors(self):
        _, part = square_with_colors()
        assert part.k == 2

    def test_accepts_valid(self):
        H, part = square_with_colors()
        assert verify_matching_partition(H, part)
        assert not verify_matching_partition(H, part).violations

    def test_rejects_shared_endpoint(self):
        H, _ = square_with_colors()
        bad = MatchingPartition.of([{"ab", "bc"}, {"cd", "ad"}])
        verdict = verify_matching_partition(H, bad)
        assert not verdict
        assert any("share vertex" in v for v in verdict.violations)

    def test_rejects_missing_edge(self):
        H, _ = square_with_colors()
        verdict = verify_matching_partition(
            H, MatchingPartition.of([{"ab", "cd"}, {"bc"}])
        )
        assert any("in no class" in v for v in verdict.violations)

    def test_rejects_duplicate_and_unknown(self):
        H, _ = square_with_colors()
        verdict = verify_matching_partition(
            H, MatchingPartition.of([{"ab", "cd"}, {"ab", "zz", "bc", "ad"}])
        )
        assert any("occurs in classes" in v for v in verdict.violations)
        assert any("unknown edge" in v for v in verdict.violations)

    def test_rejects_empty_class(self):
        H, _ = square_with_colors()
        verdict = verify_matching_partition(
            H, MatchingPartition.of([{"ab", "cd"}, {"bc", "ad"}, set()])
        )
        assert any("empty" in v for v in verdict.violations)

    def test_full_verdict_in_order(self):
        H, _ = square_with_colors()
        verdict = verify_matching_partition(
            H, MatchingPartition.of([{"ab", "bc", "zz"}, {"ab", "cd"}, set()])
        )
        assert verdict.violations == (
            "class 0: unknown edge 'zz'",
            "class 0: edges 'ab' and 'bc' share vertex 'b'",
            "edge 'ab' occurs in classes 0 and 1",
            "class 2 is empty",
            "edge 'ad' is in no class",
        )


def partition_mutants(H, part):
    """The partition with, in turn: its first class edge dropped, that edge
    put in a second class too, an unknown id, an empty class, and an edge
    of another class meeting it moved into its class."""
    classes = [sorted(cls) for cls in part.classes]
    first, rest = classes[0][0], classes[1:]
    meets = min(
        f for v in H.edge(first).ends for f in H.edges_at(v) if f not in classes[0]
    )
    return [
        [classes[0][1:], *rest],
        [classes[0], classes[1] + [first], *rest[1:]],
        [classes[0] + ["zz"], *rest],
        [*classes, []],
        [classes[0] + [meets], *([f for f in c if f != meets] for c in rest)],
    ]


class TestMatchesTheReplacedPartitionCheck:
    """The per-class acceptance gives the edge-by-edge check's whole
    verdict, every violation in order."""

    def test_every_fuzzed_document_that_parses(self):
        checked = 0
        for n, text in enumerate(edited_instances()):
            try:
                H, part, _ = parse_instance(text)
            except KempeMinorError:
                continue
            want = reference_verify_matching_partition(H, part)
            assert verify_matching_partition(H, part) == want, n
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("name, instance", standard_corpus())
    def test_corpus_instance_and_its_mutants(self, name, instance):
        H, part = instance
        assert verify_matching_partition(H, part) == Verdict(True)
        for classes in partition_mutants(H, part):
            mutant = MatchingPartition.of(classes)
            verdict = verify_matching_partition(H, mutant)
            assert not verdict
            assert verdict == reference_verify_matching_partition(H, mutant)


class TestKempe:
    def test_square_pair_union_connected(self):
        # the walk goes round the 4-cycle and counts its closing edge,
        # whichever class it starts along
        H, part = square_with_colors()
        assert verify_kempe(H, part)
        assert verify_kempe(H, MatchingPartition.of(reversed(part.classes)))

    def test_disconnected_union_rejected(self):
        # two disjoint edges in two singleton classes: their union is not
        # a connected edge set
        H = Multigraph(
            ["a", "b", "c", "d"], [edge("ab", "a", "b"), edge("cd", "c", "d")]
        )
        part = MatchingPartition.of([{"ab"}, {"cd"}])
        verdict = verify_kempe(H, part)
        assert not verdict
        assert "classes 0 and 1" in verdict.violations[0]

    def test_k4_is_kempe(self):
        H, part = k4_seed()
        assert verify_kempe(H, part)

    def test_unknown_ids_name_the_least(self):
        # whatever order the hash seed gives the class's set
        H, part = square_with_colors()
        part = MatchingPartition.of([*part.classes, {"zz", "yy", "xx"}])
        with pytest.raises(UnknownEdgeIdError, match="^unknown edge id 'xx'$"):
            verify_kempe(H, part)

    def test_digon(self):
        # parallel edges in two classes: the chain closes after two steps
        H = Multigraph(["a", "b"], [edge("p", "a", "b"), edge("q", "a", "b")])
        assert verify_kempe(H, MatchingPartition.of([{"p"}, {"q"}]))

    def test_path_walked_both_ways_from_mid_path(self):
        # class 0's one edge is the middle of the path w-x-y-z, so the chain
        # walk starts mid-path and must also walk back from its start
        H = Multigraph(
            ["w", "x", "y", "z"],
            [edge("wx", "w", "x"), edge("xy", "x", "y"), edge("yz", "y", "z")],
        )
        assert verify_kempe(H, MatchingPartition.of([{"xy"}, {"wx", "yz"}]))

    def test_empty_class_with_one_edge_class(self):
        H = Multigraph(["a", "b"], [edge("ab", "a", "b")])
        assert verify_kempe(H, MatchingPartition.of([set(), {"ab"}]))
        assert verify_kempe(H, MatchingPartition.of([{"ab"}, set()]))

    def test_two_empty_classes_rejected(self):
        H = Multigraph(["a", "b"], [edge("ab", "a", "b")])
        verdict = verify_kempe(H, MatchingPartition.of([{"ab"}, set(), set()]))
        assert verdict == Verdict(
            False, ("union of classes 1 and 2 is not connected",)
        )

    def test_two_disjoint_cycles_rejected(self):
        # two alternating squares, a-b-c-d and w-x-y-z
        H = Multigraph(
            ["a", "b", "c", "d", "w", "x", "y", "z"],
            [
                edge(u + v, u, v)
                for u, v in ("ab", "bc", "cd", "da", "wx", "xy", "yz", "zw")
            ],
        )
        part = MatchingPartition.of([{"ab", "cd", "wx", "yz"}, {"bc", "da", "xy", "zw"}])
        verdict = verify_kempe(H, part)
        assert verdict == Verdict(
            False, ("union of classes 0 and 1 is not connected",)
        )
        assert verdict == reference_verify_kempe(H, part)

    def test_cycle_plus_path_rejected(self):
        # the square a-b-c-d and the path w-x-y, whichever the walk starts in
        H = Multigraph(
            ["a", "b", "c", "d", "w", "x", "y"],
            [edge(u + v, u, v) for u, v in ("ab", "bc", "cd", "da", "wx", "xy")],
        )
        for classes in (
            [{"ab", "cd", "wx"}, {"bc", "da", "xy"}],
            [{"ab", "cd", "xy"}, {"bc", "da", "wx"}],
            [{"wx"}, {"xy", "ab"}, {"bc", "da"}, {"cd"}],
        ):
            part = MatchingPartition.of(classes)
            verdict = verify_kempe(H, part)
            assert not verdict, classes
            assert verdict == reference_verify_kempe(H, part)

    def test_non_matching_class_named(self):
        H, _ = square_with_colors()
        part = MatchingPartition.of([{"ab", "cd"}, {"bc"}, {"ad", "ab"}, {"cd", "bc"}])
        assert verify_kempe(H, part) == Verdict(False, ("class 2 is not a matching",))

    def test_unknown_id_after_non_matching_class_raises(self):
        # every class's ends are numbered before any class is judged
        H, _ = square_with_colors()
        part = MatchingPartition.of([{"ab", "bc"}, {"cd", "zz"}])
        with pytest.raises(UnknownEdgeIdError, match="^unknown edge id 'zz'$"):
            verify_kempe(H, part)

    @settings(max_examples=300, deadline=None)
    @given(partitioned_multigraphs())
    def test_agrees_with_definition(self, instance):
        # the first class that is not a matching, else the first pair whose
        # union is disconnected
        H, part = instance
        expected = first_non_matching_class(H, part) or first_disconnected_union(
            H, part
        )
        verdict = verify_kempe(H, part)
        assert verdict.ok == (not expected)
        assert verdict.violations == expected

    @settings(max_examples=300, deadline=None)
    @given(partitioned_multigraphs())
    def test_matches_the_replaced_check(self, instance):
        # a class that is not a matching is named first; on the rest the
        # first failing pair is the replaced check's
        H, part = instance
        bad = first_non_matching_class(H, part)
        expected = Verdict(False, bad) if bad else reference_verify_kempe(H, part)
        assert verify_kempe(H, part) == expected

    @settings(max_examples=500, deadline=None)
    @given(matching_partitioned_multigraphs())
    def test_matching_partitions_match_the_union_find_check(self, instance):
        H, part = instance
        assert verify_kempe(H, part) == reference_verify_kempe(H, part)

    @settings(max_examples=50, deadline=None)
    @given(partitioned_multigraphs(), st.data())
    def test_unknown_edge_raises(self, instance, data):
        H, part = instance
        i = data.draw(st.integers(min_value=0, max_value=part.k - 1))
        classes = [set(c) for c in part.classes]
        classes[i].add("zz")
        with pytest.raises(UnknownEdgeIdError):
            verify_kempe(H, MatchingPartition.of(classes))


class TestTransversal:
    def test_accepts_one_per_class(self):
        _, part = square_with_colors()
        assert verify_transversal(part, {"ab", "ad"})

    def test_rejects_double_hit_and_miss(self):
        _, part = square_with_colors()
        verdict = verify_transversal(part, {"ab", "cd"})
        assert not verdict
        assert any("hit 2 times" in v for v in verdict.violations)
        assert any("hit 0 times" in v for v in verdict.violations)

    def test_rejects_stray_edge(self):
        _, part = square_with_colors()
        verdict = verify_transversal(part, {"ab", "ad", "zz"})
        assert any("belongs to no class" in v for v in verdict.violations)


class TestEndCounting:
    def test_pair_subgraph_ends_on_path(self):
        H, part = square_with_colors()
        # both classes together form the 4-cycle: no ends
        assert pair_subgraph_ends(H, part, 0, 1) == frozenset()

    def test_identity_on_k4(self):
        H, part = k4_seed()
        for v in H.vertices:
            d = H.degree(v)
            assert pair_end_count(H, part, v) == d * (part.k - d)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([5, 7, 11]),
        st.integers(min_value=3, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_identity_after_vertex_deletion(self, m, k, rng):
        # deleting a vertex leaves mixed degrees d and d-1; the identity
        # d*(k-d) must hold at every vertex regardless
        from kempe_minors.generators import delete_vertex

        H, part = gen_circulant(m, tuple(range(k)))
        v = rng.choice(H.vertices)
        H2, part2 = delete_vertex(H, part, v)
        for u in H2.vertices:
            d = H2.degree(u)
            assert pair_end_count(H2, part2, u) == d * (part2.k - d)
