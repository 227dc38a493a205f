"""Benchmark and reward engine for text-based combinatorial optimization.

Seven NP-hard problems (TSP, OP, CVRP, MIS, MVC, PFSP, JSSP) with instance
generation, text encoding and solution parsing, feasibility checking,
constraint-aware rewards, classical baselines, exact small-instance oracles,
and an endpoint evaluation harness.
"""

from .problems import (
    GenConfig,
    Instance,
    ObjectiveValue,
    ProblemKind,
    Sense,
    gen_batch,
    gen_instance,
    load_instance,
    save_instance,
)
from .rewards import (
    REWARD_WEIGHTS,
    RewardConfig,
    feasibility_reward,
    group_advantages,
    grpo_surrogate,
    optimality_reward,
    total_reward,
)
from .tai import encode, parse, render_prompt
from .verify import FeasibilityReport, check, objective, score

__version__ = "0.1.0"

__all__ = [
    "FeasibilityReport",
    "GenConfig",
    "Instance",
    "ObjectiveValue",
    "ProblemKind",
    "REWARD_WEIGHTS",
    "RewardConfig",
    "Sense",
    "__version__",
    "check",
    "encode",
    "feasibility_reward",
    "gen_batch",
    "gen_instance",
    "group_advantages",
    "grpo_surrogate",
    "load_instance",
    "objective",
    "optimality_reward",
    "parse",
    "render_prompt",
    "save_instance",
    "score",
    "total_reward",
]
