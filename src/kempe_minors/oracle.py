"""Exhaustive brute-force finder for rooted bag systems on small instances.

Independent ground truth for the solver: it shares the graph module and
the ``BagSystem`` result type with it, but nothing of the construction
(no flow, contraction, case analysis or endgame).  Every edge outside the
prescribed set is assigned to one of the bags or left unused; prescribed
edges are pinned to distinct bags up front, which is a valid canonical form
because each bag must hold exactly one of them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import BudgetExceededError, InvalidInputError
from .graph import EdgeId, Multigraph, edge_components, number_ends
from .solver import BagSystem


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 12
    max_assignments: int = 5_000_000

    def __post_init__(self) -> None:
        if self.max_edges <= 0 or self.max_assignments <= 0:
            raise InvalidInputError("budget caps must be positive")


def oracle_solve(
    H: Multigraph,
    T: Iterable[EdgeId],
    budget: OracleBudget = OracleBudget(),
) -> Optional[BagSystem]:
    """Search all assignments; None means the full space is infeasible.

    Raises BudgetExceededError when the state cap is hit first, or when the
    search, one level per edge outside T, outgrows the recursion limit.
    """
    ts = sorted(set(T))
    number_ends(H, ts)
    k = len(ts)
    if k == 0:
        raise InvalidInputError("prescribed edge set is empty")
    if H.num_edges() > budget.max_edges:
        raise InvalidInputError(
            f"{H.num_edges()} edges exceed the {budget.max_edges}-edge cap"
        )
    free = [eid for eid in H.edge_ids if eid not in ts]
    bags: list[set[EdgeId]] = [{t} for t in ts]
    visited = 0

    def feasible(idx: int) -> bool:
        # Admissible relaxation: the remaining undecided edges are offered
        # to every bag at once.  A bag whose pieces cannot all meet inside
        # bag+remaining can never become connected; two bags whose possible
        # coverage is disjoint can never become incident.
        remaining = free[idx:]
        closures = []
        for bag in bags:
            pool = set(bag) | set(remaining)
            parts = edge_components(H, pool)
            home = [p for p in parts if bag & p]
            if len(home) != 1:
                return False
            closures.append(H.covered(home[0]))
        for a, b in combinations(closures, 2):
            if not (a & b):
                return False
        return True

    def final_ok() -> bool:
        for bag in bags:
            if len(edge_components(H, bag)) != 1:
                return False
        for a, b in combinations(bags, 2):
            if not (H.covered(a) & H.covered(b)):
                return False
        return True

    def dfs(idx: int) -> Optional[BagSystem]:
        nonlocal visited
        visited += 1
        if visited > budget.max_assignments:
            raise BudgetExceededError(
                f"explored {visited - 1} states without resolution"
            )
        if idx == len(free):
            if final_ok():
                return BagSystem.of(bags)
            return None
        if not feasible(idx):
            return None
        eid = free[idx]
        for b in range(k):
            bags[b].add(eid)
            found = dfs(idx + 1)
            bags[b].discard(eid)
            if found is not None:
                return found
        return dfs(idx + 1)  # "unused" branch last

    try:
        return dfs(0)
    except RecursionError:
        raise BudgetExceededError(
            f"search over {len(free)} free edges is deeper than the recursion "
            f"limit ({sys.getrecursionlimit()})"
        ) from None
