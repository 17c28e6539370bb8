"""Rooted complete minors in line graphs with a Kempe edge coloring.

Given a multigraph H, a partition of E(H) into matchings whose pairwise
unions are connected, and a transversal T of the partition, the solver
produces k connected, pairwise disjoint, pairwise incident edge sets of H,
one transversal edge each — the branching sets of a complete minor of the
line graph rooted at T.
"""

from .coloring import (
    MatchingPartition,
    Verdict,
    verify_kempe,
    verify_matching_partition,
    verify_transversal,
)
from .generators import (
    delete_vertex,
    gen_circulant,
    is_perfect_one_factorization,
    k4_seed,
    splice,
)
from .graph import (
    EdgeRecord,
    Multigraph,
    contract,
    edge,
    edge_components,
)
from .oracle import OracleBudget, oracle_solve
from .paths import PathSystem, Separator, disjoint_paths_or_separator
from .solver import (
    BagSystem,
    ReductionTrace,
    TraceStep,
    assert_complete_fallback,
    solve,
    solve_complete,
    verify_solution,
)

__all__ = [
    "BagSystem",
    "EdgeRecord",
    "MatchingPartition",
    "Multigraph",
    "OracleBudget",
    "PathSystem",
    "ReductionTrace",
    "Separator",
    "TraceStep",
    "Verdict",
    "assert_complete_fallback",
    "contract",
    "delete_vertex",
    "disjoint_paths_or_separator",
    "edge",
    "edge_components",
    "gen_circulant",
    "is_perfect_one_factorization",
    "k4_seed",
    "oracle_solve",
    "solve",
    "solve_complete",
    "splice",
    "verify_kempe",
    "verify_matching_partition",
    "verify_solution",
    "verify_transversal",
]
