"""Reward shaping and group-relative surrogate tests.

The surrogate is cross-checked against an exact rational-arithmetic oracle,
so any floating-point reformulation inside the package shows up here.
"""

import logging
import math
import random

import numpy as np
import pytest

import oracles
from cobench.problems.types import ProblemKind
from cobench.rewards import (
    DEFAULT_REWARD_CONFIG,
    REWARD_WEIGHTS,
    RewardConfig,
    feasibility_reward,
    group_advantages,
    grpo_surrogate,
    optimality_reward,
    total_reward,
)
from cobench.verify import FeasibilityReport, CONSTRAINT_NAMES


def _report(kind, zeta, *flags):
    names = CONSTRAINT_NAMES[kind]
    assert len(flags) == len(names)
    return FeasibilityReport(zeta=zeta, constraints=tuple(zip(names, flags)))


# ---------------------------------------------------------------------------
# Weight tables


def test_weight_tables_exact():
    assert REWARD_WEIGHTS[ProblemKind.TSP] == (0.2, 0.5, 0.3)
    assert REWARD_WEIGHTS[ProblemKind.OP] == (0.2, 0.1, 0.2, 0.5)
    assert REWARD_WEIGHTS[ProblemKind.CVRP] == (0.2, 0.1, 0.1, 0.6)
    assert REWARD_WEIGHTS[ProblemKind.MIS] == (0.2, 0.8)
    assert REWARD_WEIGHTS[ProblemKind.MVC] == (0.2, 0.8)
    assert REWARD_WEIGHTS[ProblemKind.PFSP] == (0.2, 0.8)
    assert REWARD_WEIGHTS[ProblemKind.JSSP] == (0.2, 0.2, 0.2, 0.4)


def test_weights_sum_to_one_and_match_constraint_arity():
    for kind, weights in REWARD_WEIGHTS.items():
        assert sum(weights) == pytest.approx(1.0)
        assert len(weights) == 1 + len(CONSTRAINT_NAMES[kind])


# ---------------------------------------------------------------------------
# Feasibility reward


def test_feasibility_reward_full_credit():
    assert feasibility_reward(ProblemKind.TSP, _report(ProblemKind.TSP, True, True, True)) == pytest.approx(1.0)


def test_feasibility_reward_partial_credit():
    # CVRP with capacity violated: 0.2 + 0.1 + 0.1 = 0.4.
    rep = _report(ProblemKind.CVRP, True, True, True, False)
    assert feasibility_reward(ProblemKind.CVRP, rep) == pytest.approx(0.4)


def test_feasibility_reward_zeta_gate_zeroes_everything():
    rep = _report(ProblemKind.TSP, False, True, True)
    assert feasibility_reward(ProblemKind.TSP, rep) == 0.0


def test_feasibility_reward_arity_mismatch():
    bad = FeasibilityReport(zeta=True, constraints=(("only_one", True),))
    with pytest.raises(ValueError, match="expects 2 constraints"):
        feasibility_reward(ProblemKind.TSP, bad)


def test_feasibility_reward_each_kind_each_flag():
    # Flipping one constraint off removes exactly its weight.
    for kind, weights in REWARD_WEIGHTS.items():
        n = len(weights) - 1
        full = _report(kind, True, *([True] * n))
        assert feasibility_reward(kind, full) == pytest.approx(sum(weights))
        for i in range(n):
            flags = [True] * n
            flags[i] = False
            rep = _report(kind, True, *flags)
            assert feasibility_reward(kind, rep) == pytest.approx(sum(weights) - weights[1 + i])


# ---------------------------------------------------------------------------
# Optimality reward


def test_optimality_reward_minimization_gap():
    # value 110 vs reference 100: gap 0.1 -> 1/1.1.
    assert optimality_reward(ProblemKind.TSP, 110.0, 100.0) == pytest.approx(1 / 1.1)
    assert optimality_reward(ProblemKind.TSP, 100.0, 100.0) == pytest.approx(1.0)


def test_optimality_reward_maximization_ratio():
    assert optimality_reward(ProblemKind.OP, 50.0, 100.0) == pytest.approx(0.5)
    assert optimality_reward(ProblemKind.MIS, 8.0, 10.0) == pytest.approx(0.8)


def test_optimality_reward_clamps_above_reference(caplog):
    with caplog.at_level(logging.WARNING, logger="cobench.rewards"):
        r = optimality_reward(ProblemKind.OP, 120.0, 100.0)
    assert r == pytest.approx(1.05)
    assert any("optimality reward" in rec.message for rec in caplog.records)


def test_optimality_reward_min_side_clamp(caplog):
    # Beating the reference on a minimization kind also hits the ceiling.
    with caplog.at_level(logging.WARNING, logger="cobench.rewards"):
        r = optimality_reward(ProblemKind.TSP, 50.0, 100.0)
    assert r == pytest.approx(1.05)


def test_optimality_reward_gap_below_minus_one():
    # Negative reference flips the gap below -1; branch pays the ceiling.
    assert optimality_reward(ProblemKind.TSP, -250.0, -100.0) == pytest.approx(1.05)


def test_optimality_reward_never_negative():
    # Maximization with a negative value floors at zero.
    assert optimality_reward(ProblemKind.OP, -5.0, 100.0) == 0.0


def test_optimality_reward_zero_reference():
    # Matching a zero reference earns alpha.
    assert optimality_reward(ProblemKind.OP, 0.0, 0.0) == 1.0
    assert optimality_reward(ProblemKind.TSP, 0.0, 0.0) == 1.0
    # A maximization value above it is clamped to the ceiling.
    assert optimality_reward(ProblemKind.OP, 7.0, 0.0) == pytest.approx(1.05)
    # A minimization value above it earns nothing.
    assert optimality_reward(ProblemKind.TSP, 10.0, 0.0) == 0.0


def test_optimality_reward_alpha_scaling():
    cfg = RewardConfig(alpha=2.0)
    assert optimality_reward(ProblemKind.TSP, 100.0, 100.0, cfg) == pytest.approx(2.0)
    assert optimality_reward(ProblemKind.OP, 200.0, 100.0, cfg) == pytest.approx(2.1)


# ---------------------------------------------------------------------------
# Total reward


def test_total_reward_perfect_tsp_is_two():
    rep = _report(ProblemKind.TSP, True, True, True)
    assert total_reward(ProblemKind.TSP, rep, 100.0, 100.0) == pytest.approx(2.0)


def test_total_reward_skips_optimality_when_infeasible():
    rep = _report(ProblemKind.TSP, True, True, False)
    assert total_reward(ProblemKind.TSP, rep, 100.0, 100.0) == pytest.approx(0.7)


def test_total_reward_skips_optimality_when_unscored():
    rep = _report(ProblemKind.TSP, True, True, True)
    assert total_reward(ProblemKind.TSP, rep, None, 100.0) == pytest.approx(1.0)


def test_total_reward_zeta_zero_is_zero():
    rep = _report(ProblemKind.TSP, False, False, False)
    assert total_reward(ProblemKind.TSP, rep, 100.0, 100.0) == 0.0


# ---------------------------------------------------------------------------
# Group advantages


def test_group_advantages_worked_example():
    adv = group_advantages([1.8, 1.0, 0.2, 1.0])
    assert np.allclose(adv, [1.4142, 0.0, -1.4142, 0.0], atol=1e-4)
    assert isinstance(adv, np.ndarray)


def test_group_advantages_matches_oracle():
    rnd = random.Random(0)
    for _ in range(30):
        n = rnd.randint(2, 12)
        rewards = [rnd.uniform(0, 2) for _ in range(n)]
        got = group_advantages(rewards)
        want = oracles.group_advantages_ref(rewards)
        assert np.allclose(got, want, atol=1e-12)


def test_group_advantages_degenerate_group_is_zero():
    assert np.array_equal(group_advantages([0.7, 0.7, 0.7]), np.zeros(3))
    near = [1.0, 1.0 + 1e-12]
    assert np.array_equal(group_advantages(near), np.zeros(2))


def test_group_advantages_zero_mean_unit_std():
    adv = group_advantages([0.3, 1.9, 0.8, 1.1, 0.5])
    assert adv.mean() == pytest.approx(0.0, abs=1e-12)
    assert adv.std() == pytest.approx(1.0)


def test_group_advantages_rejects_short_or_nested():
    with pytest.raises(ValueError):
        group_advantages([1.0])
    with pytest.raises(ValueError):
        group_advantages(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Clipped surrogate


def test_surrogate_spot_values():
    # r=0.5, A=-1: unclipped -0.5, clipped 0.9*-1=-0.9, min is -0.9.
    assert grpo_surrogate([0.5], [-1.0], 0.0) == pytest.approx(-0.9)
    # r=1.3, A=1: unclipped 1.3, clipped 1.1, min is 1.1.
    assert grpo_surrogate([1.3], [1.0], 0.0) == pytest.approx(1.1)
    # Inside the trust region nothing clips.
    assert grpo_surrogate([1.05], [1.0], 0.0) == pytest.approx(1.05)


def test_surrogate_kl_penalty():
    base = grpo_surrogate([1.0], [1.0], 0.0)
    penalized = grpo_surrogate([1.0], [1.0], 2.0)
    assert base - penalized == pytest.approx(DEFAULT_REWARD_CONFIG.beta_kl * 2.0)


def test_surrogate_clip_boundaries_exact():
    cfg = RewardConfig(epsilon_clip=0.1)
    # At exactly 1 +/- eps the clip is inactive: both terms agree.
    assert grpo_surrogate([1.1], [2.0], 0.0, cfg) == pytest.approx(2.2)
    assert grpo_surrogate([0.9], [-2.0], 0.0, cfg) == pytest.approx(-1.8)
    # Just beyond, the pessimistic side takes over.
    assert grpo_surrogate([1.2], [2.0], 0.0, cfg) == pytest.approx(2.2)
    assert grpo_surrogate([0.8], [-2.0], 0.0, cfg) == pytest.approx(-1.8)


def test_surrogate_matches_exact_rational_oracle():
    rnd = random.Random(1)
    for _ in range(50):
        n = rnd.randint(1, 8)
        # Draw from a coarse grid so every input is exactly representable.
        ratios = [rnd.randrange(1, 200) / 100 for _ in range(n)]
        advantages = [rnd.randrange(-300, 300) / 100 for _ in range(n)]
        kl = rnd.randrange(0, 100) / 100
        got = grpo_surrogate(ratios, advantages, kl)
        want = oracles.grpo_surrogate_exact(ratios, advantages, kl)
        assert math.isclose(got, float(want), abs_tol=1e-10)


def test_surrogate_validation():
    with pytest.raises(ValueError):
        grpo_surrogate([1.0, 0.0], [1.0, 1.0], 0.0)  # nonpositive ratio
    with pytest.raises(ValueError):
        grpo_surrogate([1.0], [1.0], -0.1)  # negative KL
    with pytest.raises(ValueError):
        grpo_surrogate([1.0, 1.0], [1.0], 0.0)  # shape mismatch
    with pytest.raises(ValueError):
        grpo_surrogate([], [], 0.0)  # empty


# ---------------------------------------------------------------------------
# Config validation


def test_reward_config_validation():
    RewardConfig()  # defaults are legal
    with pytest.raises(ValueError):
        RewardConfig(alpha=0.0)
    with pytest.raises(ValueError):
        RewardConfig(epsilon_clip=0.0)
    with pytest.raises(ValueError):
        RewardConfig(epsilon_clip=1.0)
    with pytest.raises(ValueError):
        RewardConfig(beta_kl=-0.01)
    with pytest.raises(ValueError):
        RewardConfig(group_size=1)
    with pytest.raises(ValueError):
        RewardConfig(std_floor=0.0)


def test_reward_config_defaults():
    cfg = DEFAULT_REWARD_CONFIG
    assert (cfg.alpha, cfg.epsilon_clip, cfg.beta_kl) == (1.0, 0.1, 0.05)
    assert (cfg.group_size, cfg.std_floor) == (8, 1e-8)
