"""Reward shaping and group-relative policy-gradient arithmetic.

Everything here is a pure function of its arguments: no RNG, no I/O, no
hidden state. Training loops supply rewards, probability ratios, and KL
estimates; this module turns them into scalars.

group_advantages and grpo_surrogate run once per group of a handful of
rollouts, where numpy's per-call overhead costs more than the arithmetic,
so they compute on plain Python floats. They give numpy's results bit for
bit: each elementwise step is the same IEEE operation, and every sum goes
through _sum, which adds in the order of numpy's float64 pairwise
reduction (a plain running sum under 8 values, eight lanes up to 128, and
halves above that), and ends on numpy's 0.0 start, so an all -0.0 sum reads
0.0 as np.sum's does. Input that is not a list or tuple of floats is read
by np.asarray(values, dtype=float) as before, so what converts and what
raises does not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .problems.types import ProblemKind, Sense, SENSE_BY_KIND
from .verify import FeasibilityReport

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
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not (0 < self.epsilon_clip < 1):
            raise ValueError("epsilon_clip must lie in (0, 1)")
        if not 0 <= self.beta_kl < math.inf:
            raise ValueError("beta_kl must be nonnegative and finite")


DEFAULT_REWARD_CONFIG = RewardConfig()


def feasibility_reward(kind: ProblemKind, report: FeasibilityReport) -> float:
    """Format gate plus weighted constraint credits.

    A failed format gate (zeta=0) zeroes the whole term; otherwise each
    satisfied constraint adds its weight on top of the gate's weight.
    """
    weights = REWARD_WEIGHTS[kind]
    constraints = report.constraints
    if len(constraints) != len(weights) - 1:
        raise ValueError(
            f"{kind.value} expects {len(weights) - 1} constraints, got {len(constraints)}"
        )
    if not report.zeta:
        return 0.0
    total = weights[0]
    for w, (_, ok) in zip(weights[1:], constraints):
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
    the reference are clamped to 1.05 * alpha, which logs nothing, and the
    result never goes below 0. A zero reference (an OP can score 0) gives no
    scale for a gap: matching it earns alpha, beating it earns the clamped
    ceiling, and falling short earns 0. A NaN or infinite value or reference
    raises ValueError.
    """
    if not (math.isfinite(value) and math.isfinite(reference)):
        raise ValueError(f"value and reference must be finite, got {value} and {reference}")
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
    return max(0.0, min(raw, ceiling))


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


def _floats(values) -> Optional[List[float]]:
    """`values` as a list of Python floats, converted as
    np.asarray(values, dtype=float) converts them, or None unless flat."""
    if type(values) in (list, tuple) and set(map(type, values)) == {float}:
        return list(values)
    arr = np.asarray(values, dtype=float)
    return arr.tolist() if arr.ndim == 1 else None


def _sum(values: List[float]) -> float:
    """Sum of `values` in the order of numpy's float64 add.reduce, so the
    float equals np.sum's bit for bit: a running sum from 0.0 under 8
    values; from 8 to 128, eight lanes combined pairwise and then the tail
    in order; above 128, the sums of two halves split at a multiple of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _sum(values[:half]) + _sum(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    # numpy adds the lanes' result to its 0.0 start, which makes -0.0 read 0.0.
    total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for v in values[end:]:
        total += v
    return total


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Standardize rewards within one group: (r - mean) / population std.

    A (near-)constant group, whose std is below _STD_FLOOR, has no learning
    signal and comes back as zeros instead of dividing by ~0. A NaN or
    infinite reward raises ValueError.
    """
    vals = _floats(rewards)
    if vals is None or len(vals) < 2:
        raise ValueError("need a flat group of at least 2 rewards")
    if not all(map(math.isfinite, vals)):
        raise ValueError("rewards must be finite")
    n = len(vals)
    mean = _sum(vals) / n
    devs = [r - mean for r in vals]
    std = math.sqrt(_sum([d * d for d in devs]) / n)  # population std (ddof=0)
    if std < _STD_FLOOR:
        return np.zeros(n)
    return np.array([d / std for d in devs])


def grpo_surrogate(
    ratios: Sequence[float],
    advantages: Sequence[float],
    kl: float,
    cfg: RewardConfig = DEFAULT_REWARD_CONFIG,
) -> float:
    """Clipped policy-gradient surrogate with a KL penalty.

    mean_i min(r_i * A_i, clip(r_i, 1-eps, 1+eps) * A_i) - beta * kl.
    Every ratio, advantage and the kl estimate must be finite.
    """
    r = _floats(ratios)
    a = _floats(advantages)
    if r is None or a is None or len(r) != len(a) or not r:
        raise ValueError("ratios and advantages must be equal-length 1D sequences")
    if not (all(map(math.isfinite, r)) and all(map(math.isfinite, a)) and math.isfinite(kl)):
        raise ValueError("ratios, advantages and kl must be finite")
    if min(r) <= 0:
        raise ValueError("probability ratios must be positive")
    if kl < 0:
        raise ValueError("kl estimate must be nonnegative")
    lo, hi = 1.0 - cfg.epsilon_clip, 1.0 + cfg.epsilon_clip
    terms = []
    for ri, ai in zip(r, a):
        unclipped = ri * ai
        clipped = (lo if ri < lo else hi if ri > hi else ri) * ai
        # Both products carry the sign of ai, so they are never zeros of
        # opposite sign, where np.minimum and Python's min would differ.
        terms.append(unclipped if unclipped < clipped else clipped)
    return float(_sum(terms) / len(terms) - cfg.beta_kl * kl)
