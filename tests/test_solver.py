"""The constructive solver: base cases, parallel-edge constructions, the
complete-graph endgame, the Menger branch, and the separator branch."""

import gc
import hashlib
import json
import random
import sys
import threading
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings

from kempe_minors import solver
from kempe_minors.coloring import MatchingPartition
from kempe_minors.corpus import sample_transversals
from kempe_minors.errors import InternalAssertionError, InvalidInputError
from kempe_minors.generators import (
    delete_vertex,
    gen_circulant,
    k4_seed,
    splice,
)
from kempe_minors.graph import Multigraph, edge, edge_components
from kempe_minors.paths import Separator
from kempe_minors.solver import (
    BagSystem,
    assert_complete_fallback,
    solve,
    solve_complete,
    verify_solution,
)
from completegraph import complete_graph
from test_verify import multigraph_systems


def bags_as_sets(system):
    return sorted(sorted(b) for b in system.bags)


def k5_round_robin():
    """K_5 with five near-perfect matching classes; class i misses vertex i."""
    H = complete_graph(5)
    names = H.vertices

    def eid(u, v):
        return f"e{min(u, v)}-{max(u, v)}"

    classes = []
    for i in range(5):
        cls = {
            eid(names[u], names[v])
            for u, v in combinations(range(5), 2)
            if (u + v) % 5 == (2 * i) % 5
        }
        classes.append(cls)
    return H, MatchingPartition.of(classes)


def parallel_ell2():
    """Two parallel edges plus two chained two-edge classes."""
    H = Multigraph(
        ["x", "y", "a1", "c", "b2"],
        [
            edge("e", "x", "y"),
            edge("f", "x", "y"),
            edge("xa1", "x", "a1"),
            edge("yc", "y", "c"),
            edge("xc", "x", "c"),
            edge("yb2", "y", "b2"),
        ],
    )
    part = MatchingPartition.of([{"e"}, {"f"}, {"xa1", "yc"}, {"xc", "yb2"}])
    return H, part


def parallel_ell3():
    H = Multigraph(
        ["x", "y", "p", "q", "r"],
        [
            edge("e", "x", "y"),
            edge("f", "x", "y"),
            edge("xp", "x", "p"),
            edge("yq", "y", "q"),
            edge("xq", "x", "q"),
            edge("yr", "y", "r"),
            edge("xr", "x", "r"),
            edge("yp", "y", "p"),
        ],
    )
    part = MatchingPartition.of(
        [{"e"}, {"f"}, {"xp", "yq"}, {"xq", "yr"}, {"xr", "yp"}]
    )
    return H, part


class TestVerifySolution:
    def setup_method(self):
        self.H = Multigraph(
            ["a", "b", "c", "d"],
            [
                edge("ab", "a", "b"),
                edge("bc", "b", "c"),
                edge("cd", "c", "d"),
                edge("ad", "a", "d"),
            ],
        )
        self.part = MatchingPartition.of([{"ab", "cd"}, {"bc", "ad"}])
        self.T = frozenset({"ab", "bc"})

    def test_accepts_valid(self):
        bags = BagSystem.of([{"ab", "ad"}, {"bc", "cd"}])
        assert verify_solution(self.H, self.part, self.T, bags)

    def test_wrong_bag_count(self):
        verdict = verify_solution(
            self.H, self.part, self.T, BagSystem.of([{"ab"}])
        )
        assert any("1 bags for 2 classes" in v for v in verdict.violations)

    def test_empty_bag(self):
        verdict = verify_solution(
            self.H, self.part, self.T, BagSystem.of([{"ab"}, set()])
        )
        assert any("empty" in v for v in verdict.violations)

    def test_unknown_edge(self):
        verdict = verify_solution(
            self.H, self.part, self.T, BagSystem.of([{"ab"}, {"zz"}])
        )
        assert any("unknown edges" in v for v in verdict.violations)

    def test_overlapping_bags(self):
        verdict = verify_solution(
            self.H, self.part, self.T, BagSystem.of([{"ab", "bc"}, {"bc", "cd"}])
        )
        assert any("occurs in bags 0 and 1" in v for v in verdict.violations)

    def test_disconnected_bag(self):
        verdict = verify_solution(
            self.H, self.part, self.T, BagSystem.of([{"ab", "cd"}, {"bc"}])
        )
        assert any("not a connected edge set" in v for v in verdict.violations)

    def test_bag_without_transversal_edge(self):
        verdict = verify_solution(
            self.H, self.part, self.T, BagSystem.of([{"ab"}, {"cd", "ad"}])
        )
        assert any("0 transversal edges" in v for v in verdict.violations)
        assert any("'bc' is in no bag" in v for v in verdict.violations)

    @staticmethod
    def path_abcde():
        H = Multigraph(
            ["a", "b", "c", "d", "e"],
            [
                edge("ab", "a", "b"),
                edge("bc", "b", "c"),
                edge("cd", "c", "d"),
                edge("de", "d", "e"),
            ],
        )
        return H, MatchingPartition.of([{"ab", "cd"}, {"bc", "de"}])

    def test_nonincident_bags(self):
        H, part = self.path_abcde()
        verdict = verify_solution(
            H, part, {"ab", "de"}, BagSystem.of([{"ab"}, {"de"}])
        )
        assert any("not incident" in v for v in verdict.violations)

    def test_full_verdict_in_order(self):
        # empty and unknown-edge bags are reported once and then left out of
        # the pairwise incidence check; the rest are compared pair by pair
        H, part = self.path_abcde()
        bags = BagSystem.of([{"ab"}, set(), {"bc", "zz"}, {"de"}])
        verdict = verify_solution(H, part, {"ab", "de"}, bags)
        assert verdict.violations == (
            "4 bags for 2 classes",
            "bag 1 is empty",
            "bag 2 holds unknown edges ['zz']",
            "bags 0 and 3 are not incident",
        )


    @settings(max_examples=200, deadline=None)
    @given(multigraph_systems())
    def test_connectivity_agrees_with_edge_components(self, case):
        H, part, T, bags = case
        verdict = verify_solution(H, part, T, bags)
        reported = [
            i
            for i in range(len(bags))
            for v in verdict.violations
            if v == f"bag {i} is not a connected edge set"
        ]
        expected = [
            i
            for i, bag in enumerate(bags.bags)
            if bag
            and all(eid in H for eid in bag)
            and len(edge_components(H, bag)) != 1
        ]
        assert reported == expected


class TestBaseCases:
    def test_single_class(self):
        H = Multigraph(["a", "b"], [edge("ab", "a", "b")])
        part = MatchingPartition.of([{"ab"}])
        bags, trace = solve(H, part, {"ab"})
        assert bags_as_sets(bags) == [["ab"]]
        assert trace.kinds() == ("base",)

    def test_two_classes_on_a_path(self):
        H = Multigraph(
            ["a", "b", "c", "d"],
            [edge("p0", "a", "b"), edge("p1", "b", "c"), edge("p2", "c", "d")],
        )
        part = MatchingPartition.of([{"p0", "p2"}, {"p1"}])
        bags, trace = solve(H, part, {"p0", "p1"})
        assert trace.kinds() == ("base",)
        assert verify_solution(H, part, {"p0", "p1"}, bags)

    def test_two_classes_on_a_cycle(self):
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
        for T in [{"ab", "bc"}, {"ab", "ad"}, {"cd", "bc"}, {"cd", "ad"}]:
            bags, _ = solve(H, part, T)
            assert verify_solution(H, part, T, bags)


def parallel_cases(trace):
    return tuple(s.details["case"] for s in trace.steps if s.kind == "parallel")


def parallel_peel():
    """Three parallel edges e0, e1, e4 whose singleton class e4 is peeled,
    leaving a parallel pair with two chained two-edge classes."""
    H = Multigraph(
        ["v1", "v2", "v3", "v4", "v6"],
        [
            edge("e0", "v2", "v3"),
            edge("e1", "v2", "v3"),
            edge("e2", "v2", "v6"),
            edge("e3", "v3", "v6"),
            edge("e4", "v2", "v3"),
            edge("e5", "v3", "v4"),
            edge("e6", "v1", "v2"),
        ],
    )
    part = MatchingPartition.of(
        [{"e0"}, {"e1"}, {"e2", "e5"}, {"e3", "e6"}, {"e4"}]
    )
    return H, part


class TestParallel:
    def test_ell2_matches_expected_shape(self):
        H, part = parallel_ell2()
        bags, trace = solve(H, part, {"e", "f", "xa1", "yb2"})
        assert bags_as_sets(bags) == [["e"], ["f"], ["xa1", "xc", "yc"], ["yb2"]]
        assert trace.kinds() == ("parallel",)
        assert parallel_cases(trace) == ("ell=2",)

    def test_ell2_incident_transversal_gives_singletons(self):
        H, part = parallel_ell2()
        bags, trace = solve(H, part, {"e", "f", "yc", "xc"})
        assert bags_as_sets(bags) == [["e"], ["f"], ["xc"], ["yc"]]
        assert trace.kinds() == ("parallel",)
        assert parallel_cases(trace) == ("pairwise-incident-T",)

    def test_ell2_all_transversals(self):
        H, part = parallel_ell2()
        for t2 in ("xa1", "yc"):
            for t3 in ("xc", "yb2"):
                T = {"e", "f", t2, t3}
                bags, trace = solve(H, part, T)
                assert verify_solution(H, part, T, bags)
                assert trace.kinds() == ("parallel",)
                # only xa1 and yb2 miss each other
                case = "ell=2" if (t2, t3) == ("xa1", "yb2") else "pairwise-incident-T"
                assert parallel_cases(trace) == (case,), T

    def test_ell3_all_transversals(self):
        H, part = parallel_ell3()
        for t2 in ("xp", "yq"):
            for t3 in ("xq", "yr"):
                for t4 in ("xr", "yp"):
                    T = {"e", "f", t2, t3, t4}
                    bags, trace = solve(H, part, T)
                    assert verify_solution(H, part, T, bags)
                    assert trace.kinds() == ("parallel",)
                    # T is pairwise incident only as a star at x or at y
                    star = (t2, t3, t4) in (("xp", "xq", "xr"), ("yq", "yr", "yp"))
                    case = "pairwise-incident-T" if star else "ell=3"
                    assert parallel_cases(trace) == (case,), T

    def test_singleton_peel(self):
        H, part = parallel_peel()
        T = {"e0", "e1", "e4", "e5", "e6"}
        bags, trace = solve(H, part, T)
        assert [sorted(b) for b in bags.bags] == [
            ["e0"], ["e1"], ["e2", "e3", "e6"], ["e5"], ["e4"]
        ]
        assert trace.kinds() == ("parallel", "parallel")
        assert parallel_cases(trace) == ("peel-singleton", "ell=2")
        assert trace.steps[0].details["edge"] == "e4"


# sha256 of the bag lists solve_complete returns on complete_graph(n) for
# eight seeded random T sets and one spanning star at the first vertex plus
# the edge between the next two.  The bags depend on the pivot choice (the
# least vertex of T-degree at most two), so the pin holds them fixed across
# changes to how that pivot is found.  n = 13, 19 and 31 are orders the
# complete-endgame benchmark solves (K_{2n-1} from GK_{2n}).
PINNED_COMPLETE_BAGS = {
    7: "68f8679a4c19e214055b323db340a7ec71c85e84a398dcaf839150a8f480cdfe",
    9: "c7144b40eb05e493a3d13e3375f351b399a5b066e4ac5ecf689d0a1965c7522e",
    11: "2f3535c2845b92654e1c9f4f2efbc29d4aeca1ea1110efa8a1dbf6de3829ec9d",
    13: "9007d5eff835931ac5e1fd9ddb0f476d6ad2946808e5eb31c91c2c0c7c660fe4",
    19: "c71d8bcc787921d6d0b48bd05672a9e80547c6527be1c544be5fc0faec7955c6",
    31: "9c60212b05a39c4932229b8e9c54cdc586eec82ae127f33cf64fc106cd32da92",
}


class TestCompleteEndgame:
    @pytest.mark.parametrize("n", sorted(PINNED_COMPLETE_BAGS))
    def test_bags_are_pinned(self, n):
        H = complete_graph(n)
        rng = random.Random(n)
        prescriptions = [rng.sample(H.edge_ids, n) for _ in range(8)]
        v = H.vertices
        prescriptions.append(list(H.edges_at(v[0])) + [f"e{v[1]}-{v[2]}"])
        systems = [
            [sorted(b) for b in solve_complete(H, T).bags] for T in prescriptions
        ]
        digest = hashlib.sha256(json.dumps(systems).encode()).hexdigest()
        assert digest == PINNED_COMPLETE_BAGS[n]

    def test_fallback_certificate_on_k5(self):
        H, part = k5_round_robin()
        assert assert_complete_fallback(H, part) is None

    # One row per check of assert_complete_fallback that an input reaches
    # first: the edges as "uv" strings (a trailing digit makes a parallel
    # copy), k, and the message.  The adjacency check has no row: a simple
    # graph on delta + 1 vertices, all of degree delta, is complete.
    FALLBACK_FAULTS = [
        pytest.param(
            ["ab", "ac", "ad", "bc", "bd", "cd"],
            3,
            "a vertex of full degree is present",
            id="k4-with-k3",
        ),
        pytest.param(
            ["ab", "ab2", "bc", "ac"],
            4,
            "parallel edges present in the fallback",
            id="doubled-triangle",
        ),
        pytest.param(
            ["ab", "bc", "cd", "de", "ae"],
            4,
            "maximum degree 2 is not k-1",
            id="c5-with-k4",
        ),
        pytest.param(
            ["ab", "bc", "cd", "de", "ae"],
            3,
            "5 covered vertices, need 3",
            id="c5-with-k3",
        ),
        pytest.param(["ab", "bc"], 3, "degrees are not uniform", id="path"),
    ]

    @pytest.mark.parametrize("ids, k, message", FALLBACK_FAULTS)
    def test_fallback_fault_rows(self, ids, k, message):
        H = Multigraph(
            sorted({v for eid in ids for v in eid[:2]}),
            [edge(eid, eid[0], eid[1]) for eid in ids],
        )
        # only k is read from the partition
        with pytest.raises(InternalAssertionError) as info:
            assert_complete_fallback(H, MatchingPartition.of([()] * k))
        assert str(info.value) == message

    def test_no_recursion_limit(self):
        # K_200 takes 197 levels; 100 frames above the caller must do
        H = complete_graph(200)
        T = random.Random(200).sample(H.edge_ids, 200)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            bags = solve_complete(H, T)
        finally:
            sys.setrecursionlimit(limit)
        part = MatchingPartition.of([{t} for t in sorted(T)])
        assert verify_solution(H, part, T, bags)

    def test_solve_complete_exhaustive_k4(self):
        H = complete_graph(4)
        for T in combinations(H.edge_ids, 4):
            bags = solve_complete(H, T)
            part = MatchingPartition.of([{t} for t in sorted(T)])
            assert verify_solution(H, part, T, bags)

    def test_solve_complete_input_validation(self):
        with pytest.raises(InvalidInputError):
            solve_complete(complete_graph(2), {"e0-1"})
        H = complete_graph(4)
        with pytest.raises(InvalidInputError):
            solve_complete(H, {"e0-1", "e0-2"})  # |T| != n
        missing = H.without_edges({"e0-1"})
        with pytest.raises(InvalidInputError):
            solve_complete(missing, {"e0-2", "e0-3", "e1-2", "e1-3"})
        multi = Multigraph(
            ["a", "b", "c"],
            [
                edge("ab", "a", "b"),
                edge("ab2", "a", "b"),
                edge("bc", "b", "c"),
                edge("ac", "a", "c"),
            ],
        )
        with pytest.raises(InvalidInputError):
            solve_complete(multi, {"ab", "bc", "ac"})

    def test_solve_routes_through_fallback(self):
        H, part = k5_round_robin()
        T = frozenset(min(c) for c in part.classes)
        bags, trace = solve(H, part, T)
        assert trace.kinds() == ("complete",)
        assert verify_solution(H, part, T, bags)


class TestMengerBranch:
    def test_circulant_solves_by_menger(self):
        H, part = gen_circulant(5, (0, 1, 2))
        T = frozenset(min(c) for c in part.classes)
        bags, trace = solve(H, part, T)
        assert "menger" in trace.kinds()
        assert verify_solution(H, part, T, bags)

    def test_k4_seed_all_transversals(self):
        H, part = k4_seed()
        for t0 in ("e01", "e23"):
            for t1 in ("e02", "e13"):
                for t2 in ("e03", "e12"):
                    T = {t0, t1, t2}
                    bags, _ = solve(H, part, T)
                    assert verify_solution(H, part, T, bags)


class TestSeparatorBranch:
    @staticmethod
    def thin_cut_instance():
        """Splice a circulant with K_4, then delete one bridge endpoint; the
        two surviving bridges are a cut one smaller than the class count."""
        a = gen_circulant(5, (0, 1, 2))
        b = k4_seed()
        sh, sp = splice(a, a[0].vertices[0], b, "0")
        H, part = delete_vertex(sh, sp, sh.edge("f0").ends[0])
        T = frozenset(
            next(e for e in sorted(c) if e.startswith("b.")) for c in part.classes
        )
        return H, part, T

    def test_separator_step_and_lift(self):
        H, part, T = self.thin_cut_instance()
        bags, trace = solve(H, part, T)
        assert verify_solution(H, part, T, bags)
        steps = [s for s in trace.steps if s.kind == "separator"]
        assert steps, f"no separator step in {trace.kinds()}"
        step = steps[0]
        S = step.details["separator"]
        assert len(S) == part.k - 1
        avoiding = [i for i, c in enumerate(part.classes) if not (c & S)]
        assert len(avoiding) == 1
        assert step.details["side_c"] and step.details["side_d"]
        assert set(step.details["lift_paths"]) == set(S)

    def test_separator_leaving_one_side_is_internal_error(self, monkeypatch):
        # the separator lemma: H - S has exactly two edge sides.  A flow
        # that returned an S leaving one side breaks it inside the solver.
        H, part = gen_circulant(5, (0, 1, 2))
        T = frozenset(min(c) for c in part.classes)
        S = frozenset(min(part.classes[i] - T) for i in (0, 1))
        assert len(edge_components(H, set(H.edge_ids) - S)) == 1
        monkeypatch.setattr(
            solver, "disjoint_paths_or_separator", lambda H, U, T, k: Separator(S, ())
        )
        with pytest.raises(InternalAssertionError, match="1 edge sides"):
            solve(H, part, T)

    # Faults in the flow's output, one row per check of _solve_menger that
    # consumes it.  The thin cut's separator is {s0, s1} with the paths
    # p0 = (star edge, s0) and p1 = (star edge, s1); ``far`` is a T-edge,
    # which lies on the far side.
    FLOW_FAULTS = [
        pytest.param(
            lambda S, p0, p1, far: Separator(S - {p1[-1]}, (p0,)),
            "separator has 1 edges, expected k-1 = 2",
            id="separator-size",
        ),
        pytest.param(
            lambda S, p0, p1, far: Separator(S, (p0 + p1[-1:], p1)),
            "lift path does not use exactly one separator edge",
            id="two-separator-edges",
        ),
        pytest.param(
            lambda S, p0, p1, far: Separator(S, ((far,) + p0, p1)),
            "lift path does not start at the pivot",
            id="start-off-pivot",
        ),
        pytest.param(
            lambda S, p0, p1, far: Separator(S, (p0 + p1[:1], p1)),
            "lift path does not end at the far side",
            id="end-past-separator",
        ),
        pytest.param(
            lambda S, p0, p1, far: Separator(S, (p0[:-1] + (far,) + p0[-1:], p1)),
            "lift path leaves the star side",
            id="leaves-star-side",
        ),
        pytest.param(
            lambda S, p0, p1, far: Separator(S, (p0,)),
            "lift paths do not cover the separator",
            id="missing-path",
        ),
    ]

    @pytest.mark.parametrize("fault, message", FLOW_FAULTS)
    def test_corrupted_flow_output_is_internal_error(self, monkeypatch, fault, message):
        H, part, T = self.thin_cut_instance()
        far = min(T)
        flow = solver.disjoint_paths_or_separator

        def corrupted(H, U, T, k):
            result = flow(H, U, T, k)
            if isinstance(result, Separator):
                p0, p1 = result.paths
                assert len(p0) == len(p1) == 2 and far not in result.nodes
                result = fault(result.nodes, p0, p1, far)
            return result

        monkeypatch.setattr(solver, "disjoint_paths_or_separator", corrupted)
        with pytest.raises(InternalAssertionError) as info:
            solve(H, part, T)
        assert str(info.value) == message


class TestInputValidation:
    def test_bad_partition_rejected(self):
        H, _ = k4_seed()
        bad = MatchingPartition.of([{"e01", "e02"}, {"e03", "e12"}, {"e13", "e23"}])
        with pytest.raises(InvalidInputError):
            solve(H, bad, {"e01", "e03", "e13"})

    def test_bad_transversal_rejected(self):
        H, part = k4_seed()
        with pytest.raises(InvalidInputError):
            solve(H, part, {"e01", "e23", "e02"})

    def test_unknown_edge_in_partition_rejected(self):
        H, part = k4_seed()
        bad = MatchingPartition.of([part.classes[0] | {"zz"}, *part.classes[1:]])
        with pytest.raises(InvalidInputError, match="unknown edge"):
            solve(H, bad, {"e01", "e02", "e03"})

    def test_non_kempe_rejected(self):
        H = Multigraph(
            ["a", "b", "c", "d"], [edge("ab", "a", "b"), edge("cd", "c", "d")]
        )
        part = MatchingPartition.of([{"ab"}, {"cd"}])
        with pytest.raises(InvalidInputError):
            solve(H, part, {"ab", "cd"})


class TestValidationMemo:
    """solve checks the partition and the Kempe property once per
    (H, partition) object pair, and T on every call."""

    @staticmethod
    def four_cycle():
        """C_4 with two partitions: a Kempe one and a non-Kempe one."""
        H = Multigraph(
            ["a", "b", "c", "d"],
            [
                edge("ab", "a", "b"),
                edge("bc", "b", "c"),
                edge("cd", "c", "d"),
                edge("ad", "a", "d"),
            ],
        )
        kempe = MatchingPartition.of([{"ab", "cd"}, {"bc", "ad"}])
        # {ab} and {cd} are two disjoint edges: their union is disconnected
        non_kempe = MatchingPartition.of([{"ab"}, {"cd"}, {"bc", "ad"}])
        return H, kempe, non_kempe

    def test_instance_checks_run_once_over_many_transversals(self, monkeypatch):
        calls = {"verify_kempe": 0, "verify_matching_partition": 0}
        for name in calls:
            check = getattr(solver, name)

            def counted(*args, _check=check, _name=name):
                calls[_name] += 1
                return _check(*args)

            monkeypatch.setattr(solver, name, counted)
        H, part = gen_circulant(7, (0, 1, 2, 3))
        transversals = sample_transversals(part, 50, seed=0)
        assert len(transversals) == 50
        for T in transversals:
            bags, _ = solve(H, part, T)
            assert verify_solution(H, part, T, bags)
        assert calls == {"verify_kempe": 1, "verify_matching_partition": 1}

    def test_invalid_instance_raises_the_same_error_every_call(self):
        H, _, part = self.four_cycle()
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidInputError) as info:
                solve(H, part, {"ab", "cd", "bc"})
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("kempe verification failed")

    def test_bad_transversal_after_good_one_on_same_objects(self):
        H, part = k4_seed()
        bags, _ = solve(H, part, {"e01", "e02", "e03"})
        assert verify_solution(H, part, {"e01", "e02", "e03"}, bags)
        with pytest.raises(InvalidInputError, match="^transversal verification failed"):
            solve(H, part, {"e01", "e23", "e02"})

    def test_new_partition_on_same_graph_is_revalidated(self):
        H, kempe, non_kempe = self.four_cycle()
        bags, _ = solve(H, kempe, {"ab", "bc"})
        assert verify_solution(H, kempe, {"ab", "bc"}, bags)
        with pytest.raises(InvalidInputError, match="^kempe verification failed"):
            solve(H, non_kempe, {"ab", "cd", "bc"})

    def test_memo_keeps_no_instance_alive(self):
        H, part = k4_seed()
        solve(H, part, {"e01", "e02", "e03"})
        graph_ref, part_ref = weakref.ref(H), weakref.ref(part)
        del H, part
        gc.collect()
        assert graph_ref() is None
        assert part_ref() is None

    def test_threads_never_skip_checks_for_a_mixed_pair(self):
        # Two valid instances and the cross pair (C_4, K_4's partition),
        # whose partition names edges C_4 lacks.  A memo read torn between
        # two stored pairs could pass the cross pair unchecked.
        c4, c4_part, _ = self.four_cycle()
        k4, k4_part = k4_seed()
        jobs = [
            (c4, c4_part, {"ab", "bc"}, True),
            (k4, k4_part, {"e01", "e02", "e03"}, True),
            (c4, k4_part, {"e01", "e02", "e03"}, False),
        ]
        results = []  # one per call: True when it ended as it should

        def worker(offset):
            for i in range(1000):
                H, part, T, valid = jobs[(i + offset) % len(jobs)]
                try:
                    bags, _ = solve(H, part, T)
                    results.append(valid and bool(verify_solution(H, part, T, bags)))
                except InvalidInputError as exc:
                    results.append(
                        not valid and str(exc).startswith("matching partition")
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6 * 1000 and all(results)
