"""Reward shaping and group-relative policy-gradient arithmetic.

Everything here is a pure function of its arguments: no RNG, no I/O, no
hidden state. Training loops supply rewards, probability ratios, and KL
estimates; this module turns them into scalars.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .problems.types import ProblemKind, Sense, SENSE_BY_KIND
from .verify import FeasibilityReport

logger = logging.getLogger(__name__)

# Per-kind weights: index 0 pays the format gate (zeta), the rest pay each
# constraint in its canonical order. Each vector sums to 1.
REWARD_WEIGHTS: Mapping[ProblemKind, Tuple[float, ...]] = {
    ProblemKind.TSP: (0.2, 0.5, 0.3),
    ProblemKind.OP: (0.2, 0.1, 0.2, 0.5),
    ProblemKind.CVRP: (0.2, 0.1, 0.1, 0.6),
    ProblemKind.MIS: (0.2, 0.8),
    ProblemKind.MVC: (0.2, 0.8),
    ProblemKind.PFSP: (0.2, 0.8),
    ProblemKind.JSSP: (0.2, 0.2, 0.2, 0.4),
}

# A group whose reward std is below this is degenerate (see group_advantages).
_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class RewardConfig:
    """Shaping and surrogate hyperparameters."""

    alpha: float = 1.0          # optimality reward scale
    epsilon_clip: float = 0.1   # ratio clip half-width
    beta_kl: float = 0.05       # KL penalty coefficient

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not (0 < self.epsilon_clip < 1):
            raise ValueError("epsilon_clip must lie in (0, 1)")
        if self.beta_kl < 0:
            raise ValueError("beta_kl must be nonnegative")


DEFAULT_REWARD_CONFIG = RewardConfig()


def feasibility_reward(kind: ProblemKind, report: FeasibilityReport) -> float:
    """Format gate plus weighted constraint credits.

    A failed format gate (zeta=0) zeroes the whole term; otherwise each
    satisfied constraint adds its weight on top of the gate's weight.
    """
    weights = REWARD_WEIGHTS[kind]
    flags = report.constraint_flags()
    if len(flags) != len(weights) - 1:
        raise ValueError(
            f"{kind.value} expects {len(weights) - 1} constraints, got {len(flags)}"
        )
    if not report.zeta:
        return 0.0
    total = weights[0]
    for w, ok in zip(weights[1:], flags):
        if ok:
            total += w
    return total


def optimality_reward(
    kind: ProblemKind,
    value: float,
    reference: float,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> float:
    """Closeness of a solution value to a reference value, scaled by alpha.

    Minimization kinds score alpha / (1 + gap) with gap = (value - ref)/|ref|;
    maximization kinds (OP, MIS) score alpha * value / ref. Values beating
    the reference are clamped to 1.05 * alpha with a logged warning, and the
    result never goes below 0. A zero reference (an OP can score 0) gives no
    scale for a gap: matching it earns alpha, beating it earns the clamped
    ceiling, and falling short earns 0.
    """
    sense = SENSE_BY_KIND[kind]
    if reference == 0:
        beats = value < 0 if sense is Sense.MIN else value > 0
        raw = cfg.alpha if value == 0 else (math.inf if beats else 0.0)
    elif sense is Sense.MIN:
        gap = (value - reference) / abs(reference)
        raw = cfg.alpha / (1.0 + gap) if gap > -1.0 else cfg.alpha * 1.05
    else:
        raw = cfg.alpha * value / reference
    ceiling = cfg.alpha * 1.05
    if raw > ceiling:
        logger.warning(
            "optimality reward %.6f beats the reference; clamping to %.6f", raw, ceiling
        )
        raw = ceiling
    return max(0.0, raw)


def total_reward(
    kind: ProblemKind,
    report: FeasibilityReport,
    value: float | None,
    reference: float,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> float:
    """Feasibility reward plus, for feasible solutions only, the optimality
    reward. Infeasible or unscored candidates earn no optimality credit."""
    r = feasibility_reward(kind, report)
    if report.feasible and value is not None:
        r += optimality_reward(kind, value, reference, cfg)
    return r


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Standardize rewards within one group: (r - mean) / population std.

    A (near-)constant group, whose std is below _STD_FLOOR, has no learning
    signal and comes back as zeros instead of dividing by ~0.
    """
    arr = np.asarray(rewards, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a flat group of at least 2 rewards")
    std = float(arr.std())  # population std (ddof=0)
    if std < _STD_FLOOR:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std


def grpo_surrogate(
    ratios: Sequence[float],
    advantages: Sequence[float],
    kl: float,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> float:
    """Clipped policy-gradient surrogate with a KL penalty.

    mean_i min(r_i * A_i, clip(r_i, 1-eps, 1+eps) * A_i) - beta * kl.
    """
    r = np.asarray(ratios, dtype=float)
    a = np.asarray(advantages, dtype=float)
    if r.shape != a.shape or r.ndim != 1 or r.size == 0:
        raise ValueError("ratios and advantages must be equal-length 1D sequences")
    if np.any(r <= 0):
        raise ValueError("probability ratios must be positive")
    if kl < 0:
        raise ValueError("kl estimate must be nonnegative")
    clipped = np.clip(r, 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip)
    term = np.minimum(r * a, clipped * a)
    return float(term.mean() - cfg.beta_kl * kl)
