"""Instance generators and their certification helpers."""

from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kempe_minors.errors import (
    BadModulusError,
    NotPerfectError,
    OrderMismatchError,
    ShiftOutOfRangeError,
    UnknownVertexError,
)
from kempe_minors.generators import (
    _is_near_perfect,
    delete_vertex,
    gen_circulant,
    is_perfect_one_factorization,
    k4_seed,
    splice,
)
from kempe_minors.coloring import (
    MatchingPartition,
    verify_kempe,
    verify_matching_partition,
)
from kempe_minors.corpus import standard_corpus
from kempe_minors.graph import EdgeRecord, Multigraph, edge
from completegraph import complete_graph
from hamilton import pair_union_is_hamilton_cycle, pair_union_is_hamilton_path


VALID_PARAMS = [
    (m, k) for m in (5, 7, 11, 13) for k in (3, 4, 5)
]


class TestCirculant:
    def test_counts(self):
        H, part = gen_circulant(5, (0, 1, 2))
        assert len(H.vertices) == 10
        assert H.num_edges() == 15
        assert part.k == 3
        assert all(len(c) == 5 for c in part.classes)

    def test_is_perfect(self):
        for m, k in VALID_PARAMS:
            H, part = gen_circulant(m, tuple(range(k)))
            assert is_perfect_one_factorization(H, part)

    def test_bad_modulus(self):
        with pytest.raises(BadModulusError):
            gen_circulant(0, (0,))
        with pytest.raises(BadModulusError):
            gen_circulant(6, (0, 2))  # gcd(0-2, 6) = 2

    def test_shift_out_of_range(self):
        with pytest.raises(ShiftOutOfRangeError):
            gen_circulant(5, (0, 5))
        with pytest.raises(ShiftOutOfRangeError):
            gen_circulant(5, (-1, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    def test_any_coprime_shift_set_is_perfect(self, m, data):
        shifts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=m - 1),
                min_size=3,
                max_size=5,
                unique=True,
            )
        )
        from math import gcd

        if any(gcd(a - b, m) != 1 for a, b in combinations(shifts, 2)):
            with pytest.raises(BadModulusError):
                gen_circulant(m, tuple(shifts))
            return
        H, part = gen_circulant(m, tuple(shifts))
        assert is_perfect_one_factorization(H, part)


class TestSplice:
    def test_counts_and_perfection(self):
        a = gen_circulant(5, (0, 1, 2))
        b = k4_seed()
        H, part = splice(a, "b0", b, "0")
        # both chosen vertices vanish; one bridge per class replaces their stubs
        assert len(H.vertices) == 10 + 4 - 2
        assert H.num_edges() == 15 + 6 - 2 * 3 + 3
        assert part.k == 3
        assert is_perfect_one_factorization(H, part)
        assert all(f"f{j}" in H for j in range(3))

    def test_order_mismatch(self):
        a = gen_circulant(5, (0, 1, 2))
        b = gen_circulant(5, (0, 1, 2, 3))
        with pytest.raises(OrderMismatchError):
            splice(a, "b0", b, "b0")

    def test_not_perfect_input(self):
        a = gen_circulant(5, (0, 1, 2))
        worn = delete_vertex(a[0], a[1], "b0")
        with pytest.raises(NotPerfectError):
            splice(worn, "b1", a, "b0")

    def test_unknown_vertex(self):
        a = gen_circulant(5, (0, 1, 2))
        with pytest.raises(UnknownVertexError):
            splice(a, "zz", k4_seed(), "0")


class TestDeleteVertex:
    def test_counts_and_path_unions(self):
        H, part = gen_circulant(5, (0, 1, 2))
        H2, part2 = delete_vertex(H, part, "b0")
        assert len(H2.vertices) == 9
        assert H2.num_edges() == 12
        for i, j in combinations(range(part2.k), 2):
            assert pair_union_is_hamilton_path(
                H2, part2.classes[i], part2.classes[j]
            )
        assert not is_perfect_one_factorization(H2, part2)

    def test_still_kempe(self):
        H, part = gen_circulant(7, (0, 1, 2, 3))
        H2, part2 = delete_vertex(H, part, "t3")
        assert verify_matching_partition(H2, part2)
        assert verify_kempe(H2, part2)

    def test_unknown_vertex(self):
        H, part = k4_seed()
        with pytest.raises(UnknownVertexError):
            delete_vertex(H, part, "9")

    def test_not_perfect_input(self):
        H, part = gen_circulant(5, (0, 1, 2))
        H2, part2 = delete_vertex(H, part, "b0")
        with pytest.raises(NotPerfectError):
            delete_vertex(H2, part2, "b1")


class TestCertifiers:
    def test_hamilton_cycle_positive_and_negative(self):
        H, part = k4_seed()
        assert pair_union_is_hamilton_cycle(H, part.classes[0], part.classes[1])
        # a pair union shrunk by one edge is a path, not a cycle
        short = part.classes[0] | (part.classes[1] - {min(part.classes[1])})
        assert not pair_union_is_hamilton_cycle(H, part.classes[0], short)

    def test_hamilton_path_negative_on_cycle(self):
        H, part = k4_seed()
        assert not pair_union_is_hamilton_path(H, part.classes[0], part.classes[1])

    def test_perfect_iff_every_pair_union_is_a_hamilton_cycle(self):
        def by_cycles(H, part):
            return bool(verify_matching_partition(H, part)) and all(
                pair_union_is_hamilton_cycle(H, part.classes[i], part.classes[j])
                for i, j in combinations(range(part.k), 2)
            )

        cases = [
            (name, H, part, not name.startswith("delete-"))
            for name, (H, part) in standard_corpus()
        ]
        # two disjoint K_4 factorizations merged class by class: perfect
        # matchings whose pair unions are two 4-cycles each, so not Kempe
        k4, k4_part = k4_seed()
        twin = Multigraph(
            [f"{s}{v}" for s in "xy" for v in k4.vertices],
            [
                EdgeRecord(f"{s}{e.id}", tuple(f"{s}{v}" for v in e.ends))
                for s in "xy"
                for e in k4.edges()
            ],
        )
        twin_part = MatchingPartition.of(
            {f"{s}{eid}" for s in "xy" for eid in cls} for cls in k4_part.classes
        )
        cases.append(("two K4", twin, twin_part, False))
        digon = Multigraph(["a", "b"], [edge("p", "a", "b"), edge("q", "a", "b")])
        cases.append(("digon", digon, MatchingPartition.of([{"p"}, {"q"}]), True))
        for name, H, part, perfect in cases:
            assert is_perfect_one_factorization(H, part) == by_cycles(H, part) == perfect, name


def by_paths(H, part):
    """The near-perfect certificate by its definition: a matching partition
    whose every pair union is a Hamilton path."""
    return bool(verify_matching_partition(H, part)) and all(
        pair_union_is_hamilton_path(H, part.classes[i], part.classes[j])
        for i, j in combinations(range(part.k), 2)
    )


@st.composite
def matching_partitions(draw):
    """Up to 5 matchings on 2-7 vertices; parallel edges across classes are
    allowed.  Half the draws take each class as the first pairs of a random
    vertex order.  The other half take classes of the round robin, where
    class c joins u and v with u + v = c mod n: for prime n every two of
    them form a Hamilton path."""
    n = draw(st.integers(min_value=2, max_value=7))
    if draw(st.booleans()):
        sums = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=5))
        pairs = [
            [(u, v) for u, v in combinations(range(n), 2) if (u + v) % n == c]
            for c in sums
        ]
    else:
        pairs = []
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            order = draw(st.permutations(range(n)))
            size = draw(st.integers(min_value=1, max_value=n // 2))
            pairs.append(list(zip(order[0::2], order[1::2]))[:size])
    edges = [
        edge(f"c{j}e{i}", f"v{u}", f"v{v}")
        for j, ps in enumerate(pairs)
        for i, (u, v) in enumerate(ps)
    ]
    classes = [{f"c{j}e{i}" for i in range(len(ps))} for j, ps in enumerate(pairs)]
    return Multigraph([f"v{i}" for i in range(n)], edges), MatchingPartition.of(classes)


class TestNearPerfect:
    def test_agrees_with_hamilton_paths_on_the_corpus(self):
        for name, (H, part) in standard_corpus():
            expected = name.startswith("delete-")
            assert _is_near_perfect(H, part) == by_paths(H, part) == expected, name

    def square(self, extra_vertices=(), extra_edges=(), extra_class=()):
        """The 4-cycle a-b-c-d as two classes, with optional additions."""
        H = Multigraph(
            ["a", "b", "c", "d", *extra_vertices],
            [
                edge("ab", "a", "b"),
                edge("bc", "b", "c"),
                edge("cd", "c", "d"),
                edge("da", "d", "a"),
                *extra_edges,
            ],
        )
        return H, MatchingPartition.of([{"ab", "cd", *extra_class}, {"bc", "da"}])

    def test_crafted_negatives(self):
        # each fails one condition of the certificate and passes the others
        cases = {
            # 4 edges on 5 vertices, but both classes miss x
            "shared miss": self.square(["x"]),
            # a Hamilton cycle: 4 edges on 4 vertices
            "pair sizes": self.square(),
            # 5 edges on 6 vertices, every vertex covered, in two pieces
            "disconnected": self.square(["x", "y"], [edge("xy", "x", "y")], ["xy"]),
        }
        for name, (H, part) in cases.items():
            assert verify_matching_partition(H, part), name
            assert not _is_near_perfect(H, part), name
            assert not by_paths(H, part), name
        path = Multigraph(
            ["a", "b", "c", "d"],
            [edge("ab", "a", "b"), edge("bc", "b", "c"), edge("cd", "c", "d")],
        )
        part = MatchingPartition.of([{"ab", "cd"}, {"bc"}])
        assert _is_near_perfect(path, part) and by_paths(path, part)

    @seed(20260)
    @settings(max_examples=300, deadline=None)
    @given(matching_partitions())
    def test_agrees_with_hamilton_paths_on_drawn_partitions(self, drawn):
        H, part = drawn
        assert _is_near_perfect(H, part) == by_paths(H, part)


class TestSeedsAndComplete:
    def test_k4_seed_is_perfect(self):
        H, part = k4_seed()
        assert H.num_edges() == 6 and part.k == 3
        assert is_perfect_one_factorization(H, part)

    def test_complete_graph_counts(self):
        for n in (3, 4, 5, 6):
            H = complete_graph(n)
            assert len(H.vertices) == n
            assert H.num_edges() == n * (n - 1) // 2
            assert H.is_simple()
            assert all(H.degree(v) == n - 1 for v in H.vertices)
