"""The exhaustive finder: ground truth on small instances."""

import sys
from contextlib import contextmanager

import pytest

from kempe_minors.errors import BudgetExceededError, InvalidInputError
from kempe_minors.generators import gen_circulant, k4_seed
from kempe_minors.graph import Multigraph, edge
from kempe_minors.oracle import OracleBudget, oracle_solve
from kempe_minors.solver import solve, verify_solution
from kempe_minors.coloring import MatchingPartition
from completegraph import complete_graph


@contextmanager
def recursion_limit(limit):
    """Run the block under a lower recursion limit, restored after it."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def deep_search_instance():
    """A 305-edge circulant with one transversal: 300 free edges, so the
    search goes one level per free edge past a recursion limit of 250."""
    H, part = gen_circulant(61, (0, 1, 2, 3, 4))
    return H, part, frozenset(min(c) for c in part.classes)


def k5_edge(u, v):
    return f"e{min(u, v)}-{max(u, v)}"


class TestOracle:
    def test_agrees_with_solver_on_k4(self):
        H, part = k4_seed()
        for t0 in ("e01", "e23"):
            for t1 in ("e02", "e13"):
                for t2 in ("e03", "e12"):
                    T = frozenset({t0, t1, t2})
                    found = oracle_solve(H, T)
                    assert found is not None
                    assert verify_solution(H, part, T, found)
                    bags, _ = solve(H, part, T)
                    assert verify_solution(H, part, T, bags)

    def test_feasible_on_k5_star_transversal(self):
        H = complete_graph(5)
        T = [k5_edge("0", v) for v in "1234"] + [k5_edge("1", "2")]
        assert oracle_solve(H, T) is not None

    def test_infeasible_on_disconnected_prescription(self):
        H = Multigraph(
            ["a", "b", "c", "d"], [edge("ab", "a", "b"), edge("cd", "c", "d")]
        )
        assert oracle_solve(H, {"ab", "cd"}) is None

    def test_k23_prescription_infeasible(self):
        H = complete_graph(5)
        T = [k5_edge(u, v) for u in "01" for v in "234"]
        assert oracle_solve(H, T) is None

    def test_budget_edges(self):
        H = complete_graph(5)
        with pytest.raises(InvalidInputError):
            oracle_solve(H, {k5_edge("0", "1")}, OracleBudget(max_edges=8))

    def test_budget_assignments(self):
        H, _ = k4_seed()
        with pytest.raises(BudgetExceededError):
            oracle_solve(
                H, {"e01", "e02", "e03"}, OracleBudget(max_assignments=3)
            )

    def test_search_deeper_than_the_recursion_limit_is_over_budget(self):
        H, _, T = deep_search_instance()
        budget = OracleBudget(max_edges=5000)
        with recursion_limit(250):
            with pytest.raises(BudgetExceededError, match=r"recursion limit \(250\)"):
                oracle_solve(H, T, budget)

    def test_rejects_empty_prescription(self):
        H, _ = k4_seed()
        with pytest.raises(InvalidInputError):
            oracle_solve(H, set())

    def test_rejects_bad_budget(self):
        with pytest.raises(InvalidInputError):
            OracleBudget(max_edges=0)

    def test_found_bag_count_matches_prescription(self):
        H, part = k4_seed()
        T = frozenset({"e01", "e02", "e03"})
        found = oracle_solve(H, T)
        assert found is not None and len(found) == 3
        part3 = MatchingPartition.of([{t} for t in sorted(T)])
        assert verify_solution(H, part3, T, found)
