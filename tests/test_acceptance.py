"""Acceptance harness: one test per acceptance criterion.

Each test ends by printing a single PASS line (run with ``pytest -s`` to see
them); a failed assertion doubles as the FAIL line in the pytest report.
"""

import hashlib
import json
import time
from collections import Counter
from itertools import combinations

from kempe_minors.coloring import MatchingPartition
from kempe_minors.corpus import (
    all_transversals,
    sample_transversals,
    standard_corpus,
)
from kempe_minors.generators import is_perfect_one_factorization
from kempe_minors.oracle import oracle_solve
from kempe_minors.solver import solve, solve_complete, verify_solution
from kempe_minors.graph import Multigraph, edge
from completegraph import complete_graph
from endcount import pair_end_count
from hamilton import pair_union_is_hamilton_path


# sha256 of the criterion-1 rows [name, sorted T, sorted bags, step kinds],
# in corpus order
CRITERION_1_DIGEST = "703ba9778f7497828cf4ad233c77b1892716b6a39af4e0f2ea3b56bbca506941"
# sha256 of the rows [name, sorted T, [sorted S for each separator step]]:
# the minimum cut nearest the star is the same in every maximum flow, so
# this pin holds whichever Menger paths the flow picks
CRITERION_1_SEPARATORS = "3e869a45ca259a1f02e48f12b96a3eeb6f55ea77362f15ca60659c3507fa11ce"


def _report(n, message):
    print(f"\n[criterion {n}] PASS: {message}")


def test_criterion_1_solve_then_verify_whole_corpus():
    start = time.perf_counter()
    solves = []
    shapes = Counter()
    for name, (H, part) in standard_corpus():
        for T in sample_transversals(part, 50, seed=0):
            bags, trace = solve(H, part, T)
            verdict = verify_solution(H, part, T, bags)
            assert verdict, f"{name}: {verdict.violations}"
            shapes[">".join(trace.kinds())] += 1
            solves.append((name, T, bags, trace))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"corpus sweep took {elapsed:.1f}s, budget is 10s"
    # the branches the sweep takes are part of the solver's behaviour
    assert shapes == {"menger": 3181, "separator>menger": 227, "complete": 1}, shapes
    # so are the separator sets, pinned on their own before the bags: the
    # choice among Menger paths moves the bags but not these
    cuts = []
    for name, T, _, trace in solves:
        seps = [s.details["separator"] for s in trace.steps if s.kind == "separator"]
        cuts.append([name, sorted(T), [sorted(S) for S in seps]])
    digest = hashlib.sha256(json.dumps(cuts).encode()).hexdigest()
    assert digest == CRITERION_1_SEPARATORS, digest
    # and so are the bags, Menger and separator ones included: one digest
    # pins every solve's output, whatever the hash seed
    rows = [
        [name, sorted(T), [sorted(b) for b in bags.bags], list(trace.kinds())]
        for name, T, bags, trace in solves
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CRITERION_1_DIGEST, digest
    _report(1, f"{len(solves)} solve+verify runs over the corpus in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_on_small_instances():
    checked = 0
    names = []
    for name, (H, part) in standard_corpus():
        if H.num_edges() > 10:
            continue
        names.append(name)
        for T in all_transversals(part):
            found = oracle_solve(H, T)
            assert found is not None, f"{name}: oracle says infeasible for {sorted(T)}"
            bags, _ = solve(H, part, T)
            assert verify_solution(H, part, T, bags), name
            checked += 1
    assert names, "no small instances in the corpus"
    _report(
        2,
        f"oracle and solver agree on {checked} transversals of {names}",
    )


def test_criterion_3_complete_graph_sweep():
    start = time.perf_counter()
    cases = 0
    for n in (3, 4, 5):
        H = complete_graph(n)
        for T in combinations(H.edge_ids, n):
            bags = solve_complete(H, T)
            part = MatchingPartition.of([{t} for t in sorted(T)])
            verdict = verify_solution(H, part, T, bags)
            assert verdict, f"n={n}, T={T}: {verdict.violations}"
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 1 + 15 + 252
    assert elapsed < 5.0, f"sweep took {elapsed:.1f}s, budget is 5s"
    _report(3, f"all {cases} prescribed edge sets on K_3..K_5 in {elapsed:.1f}s")


def test_criterion_4_known_infeasible_prescriptions():
    H = complete_graph(5)

    def eid(u, v):
        return f"e{min(u, v)}-{max(u, v)}"

    start = time.perf_counter()
    biclique = [eid(u, v) for u in "01" for v in "234"]
    assert oracle_solve(H, biclique) is None
    t1 = time.perf_counter() - start
    assert t1 < 60.0

    start = time.perf_counter()
    extended = biclique + [eid("0", "1"), eid("2", "3")]
    assert oracle_solve(H, extended) is None
    t2 = time.perf_counter() - start
    assert t2 < 60.0
    _report(
        4,
        f"6-edge biclique ({t1:.1f}s) and its 8-edge extension ({t2:.1f}s) "
        "are infeasible on K_5",
    )


def test_criterion_5_factorization_certificates():
    cycles = paths = 0
    for name, (H, part) in standard_corpus():
        if name.startswith("delete-"):
            for i, j in combinations(range(part.k), 2):
                assert pair_union_is_hamilton_path(
                    H, part.classes[i], part.classes[j]
                ), f"{name}: classes {i},{j}"
            paths += 1
        else:
            assert is_perfect_one_factorization(H, part), name
            cycles += 1
    _report(
        5,
        f"{cycles} instances certified perfect, {paths} deletions certified "
        "all-pairs Hamilton paths",
    )


def test_criterion_6_counting_identities():
    vertices = edges = 0
    for name, (H, part) in standard_corpus():
        k = part.k
        for v in H.vertices:
            d = H.degree(v)
            assert pair_end_count(H, part, v) == d * (k - d), f"{name}: {v}"
            vertices += 1
        for e in H.edges():
            x, y = e.ends
            assert H.degree(x) + H.degree(y) >= k + 1, f"{name}: {e.id}"
            edges += 1
    _report(6, f"end-count identity at {vertices} vertices, degree bound at {edges} edges")


def test_criterion_7_separator_branch_is_exercised():
    corpus = dict(standard_corpus())
    name = "delete-splice-circulant-m5-k3-k4"
    assert name in corpus, sorted(corpus)[:5]
    H, part = corpus[name]
    # pull the transversal entirely to the far side of the surviving bridges
    T = frozenset(
        next(e for e in sorted(c) if e.startswith("b.")) for c in part.classes
    )
    bags, trace = solve(H, part, T)
    assert verify_solution(H, part, T, bags)
    steps = [s for s in trace.steps if s.kind == "separator"]
    assert steps, f"no separator step; trace kinds: {trace.kinds()}"
    details = steps[0].details
    S = details["separator"]
    assert len(S) == part.k - 1
    avoiding = [i for i, c in enumerate(part.classes) if not (c & S)]
    assert len(avoiding) == 1
    assert details["side_c"] and details["side_d"]
    _report(
        7,
        f"{name}: separator {sorted(S)} of size k-1={part.k - 1}, "
        f"one avoiding class, two sides",
    )


def test_criterion_8_parallel_edge_regressions():
    # two parallel edges with two chained two-edge classes
    H2 = Multigraph(
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
    part2 = MatchingPartition.of([{"e"}, {"f"}, {"xa1", "yc"}, {"xc", "yb2"}])
    T2 = {"e", "f", "xa1", "yb2"}
    bags2, trace2 = solve(H2, part2, T2)
    assert trace2.kinds() == ("parallel",)
    assert verify_solution(H2, part2, T2, bags2)
    got = sorted(sorted(b) for b in bags2.bags)
    assert got == [["e"], ["f"], ["xa1", "xc", "yc"], ["yb2"]]

    # three two-edge classes chained cyclically around the parallel pair
    H3 = Multigraph(
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
    part3 = MatchingPartition.of(
        [{"e"}, {"f"}, {"xp", "yq"}, {"xq", "yr"}, {"xr", "yp"}]
    )
    T3 = {"e", "f", "xp", "yr", "yp"}
    bags3, trace3 = solve(H3, part3, T3)
    assert trace3.kinds() == ("parallel",)
    assert verify_solution(H3, part3, T3, bags3)
    _report(8, "both chained-class configurations reproduce the expected systems")
