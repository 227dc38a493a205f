"""Classical baselines and exact small-instance oracles.

solve() dispatches by (problem kind, method name). Method names are stable
strings used by the CLI and the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from ..problems.types import Instance, ObjectiveValue, ProblemKind, Solution
from ..verify import objective
from .aco import AcoConfig, aco_solve
from .brute_force import (
    DEFAULT_BUDGET,
    BruteForceBudget,
    BudgetExceededError,
    brute_force,
)
from .graphs import (
    mis_degree_add,
    mis_greedy_min_degree,
    mvc_approx_matching,
    mvc_degree_removal,
    mvc_greedy_max_degree,
)
from .routing import (
    cvrp_savings,
    cvrp_sweep,
    op_greedy,
    op_greedy_insertion,
    op_tsili,
    tsp_farthest_insertion,
    tsp_nearest_neighbor,
)
from .scheduling import jssp_dispatch, pfsp_neh, pfsp_palmer

Solver = Callable[..., Solution]


def _aco(inst: Instance, seed: Optional[int] = None, **params) -> Solution:
    base = AcoConfig.default_for(inst.kind)
    base = replace(base, seed=0 if seed is None else seed, **params)
    return aco_solve(inst, base)


_REGISTRY: Dict[Tuple[ProblemKind, str], Solver] = {
    (ProblemKind.TSP, "nn"): tsp_nearest_neighbor,
    (ProblemKind.TSP, "fi"): tsp_farthest_insertion,
    (ProblemKind.TSP, "aco"): _aco,
    (ProblemKind.OP, "greedy"): op_greedy,
    (ProblemKind.OP, "greedy_insertion"): op_greedy_insertion,
    (ProblemKind.OP, "tsili"): op_tsili,
    (ProblemKind.OP, "aco"): _aco,
    (ProblemKind.CVRP, "sweep"): cvrp_sweep,
    (ProblemKind.CVRP, "savings"): cvrp_savings,
    (ProblemKind.CVRP, "aco"): _aco,
    (ProblemKind.MIS, "greedy"): mis_greedy_min_degree,
    (ProblemKind.MIS, "degree"): mis_degree_add,
    (ProblemKind.MVC, "approx"): mvc_approx_matching,
    (ProblemKind.MVC, "greedy"): mvc_greedy_max_degree,
    (ProblemKind.MVC, "degree"): mvc_degree_removal,
    (ProblemKind.PFSP, "palmer"): pfsp_palmer,
    (ProblemKind.PFSP, "neh"): pfsp_neh,
    (ProblemKind.JSSP, "spt"): lambda inst, **kw: jssp_dispatch(inst, rule="spt", **kw),
    (ProblemKind.JSSP, "fifo"): lambda inst, **kw: jssp_dispatch(inst, rule="fifo", **kw),
    (ProblemKind.JSSP, "atc"): lambda inst, **kw: jssp_dispatch(inst, rule="atc", **kw),
}

# Method names per kind, in registry order (the order CLI messages list them).
METHODS_BY_KIND: Dict[ProblemKind, Tuple[str, ...]] = {
    kind: tuple(m for k, m in _REGISTRY if k is kind) for kind, _ in _REGISTRY
}

# Methods whose behavior depends on a random seed.
SEEDED_METHODS = {"aco", "tsili"}


@dataclass(frozen=True)
class SolveResult:
    solution: Solution
    objective: ObjectiveValue
    method: str


def solve(
    inst: Instance, method: str, seed: Optional[int] = None, **params
) -> SolveResult:
    """Run a named baseline on an instance and score its solution."""
    key = (inst.kind, method)
    if key not in _REGISTRY:
        known = ", ".join(METHODS_BY_KIND.get(inst.kind, ()))
        raise ValueError(
            f"unknown method {method!r} for {inst.kind.value} (known: {known})"
        )
    fn = _REGISTRY[key]
    if method in SEEDED_METHODS:
        sol = fn(inst, seed=seed, **params)
    else:
        sol = fn(inst, **params)
    return SolveResult(solution=sol, objective=objective(inst, sol), method=method)


__all__ = [
    "AcoConfig",
    "BruteForceBudget",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "METHODS_BY_KIND",
    "SEEDED_METHODS",
    "SolveResult",
    "aco_solve",
    "brute_force",
    "cvrp_savings",
    "cvrp_sweep",
    "jssp_dispatch",
    "mis_degree_add",
    "mis_greedy_min_degree",
    "mvc_approx_matching",
    "mvc_degree_removal",
    "mvc_greedy_max_degree",
    "op_greedy",
    "op_greedy_insertion",
    "op_tsili",
    "pfsp_neh",
    "pfsp_palmer",
    "solve",
    "tsp_farthest_insertion",
    "tsp_nearest_neighbor",
]
