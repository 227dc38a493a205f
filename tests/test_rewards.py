"""Reward shaping and group-relative surrogate tests.

The surrogate is cross-checked against an exact rational-arithmetic oracle,
so any floating-point reformulation inside the package shows up here.
"""

import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cobench import rewards as rewards_module


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
    # The clamp is silent: the library logs nothing per sample.
    with caplog.at_level(logging.DEBUG):
        r = optimality_reward(ProblemKind.OP, 120.0, 100.0, RewardConfig(alpha=2.0))
    assert r == pytest.approx(2.0 * 1.05)
    assert caplog.records == []


def test_optimality_reward_min_side_clamp(caplog):
    # Beating the reference on a minimization kind also hits the ceiling.
    with caplog.at_level(logging.DEBUG):
        r = optimality_reward(ProblemKind.TSP, 50.0, 100.0)
    assert r == pytest.approx(1.05)
    assert caplog.records == []


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [ProblemKind.TSP, ProblemKind.OP])
def test_optimality_reward_rejects_non_finite(kind, bad):
    # A NaN or infinite reference used to pay a MIN answer the ceiling and
    # a MAX answer 0.
    with pytest.raises(ValueError, match="finite"):
        optimality_reward(kind, 10.0, bad)
    with pytest.raises(ValueError, match="finite"):
        optimality_reward(kind, bad, 10.0)


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
    for bad in (
        [1.0],
        np.array([1.0]),
        [],
        np.ones((2, 2)),
        [[1.0, 2.0], [3.0, 4.0]],
        [[1.0], [2.0, 3.0]],
        np.float64(1.0),
    ):
        with pytest.raises(ValueError):
            group_advantages(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_group_advantages_rejects_non_finite(bad):
    # NaN slipped through the std floor test and came back as NaN advantages.
    with pytest.raises(ValueError, match="finite"):
        group_advantages([1.0, bad, 0.5])


# Rewards as a scorer pays them (grid points, so groups tie and go
# degenerate), signed zeros, subnormals and wide floats.
_REWARD = st.one_of(
    st.sampled_from([0.0, -0.0, 0.2, 1.0, 2.05, 5e-324, -5e-324]),
    st.integers(-8, 8).map(lambda k: k / 4),
    st.floats(-1e6, 1e6),
)
_EDGE_SIZES = [2, 7, 8, 9, 16, 127, 128, 129, 300]


def _fill(n, rnd, drawn, how):
    """n rewards: the drawn values repeated, or a seeded grid or wide fill
    with the drawn values placed at random, which keeps long groups cheap."""
    if how == "repeat":
        return (drawn * n)[:n]
    if how == "grid":
        values = [rnd.randrange(-8, 9) / 4 for _ in range(n)]
    else:
        values = [rnd.uniform(-1, 1) * 10 ** rnd.randint(-6, 6) for _ in range(n)]
    for v in drawn:
        values[rnd.randrange(n)] = v
    return values


def _group(n):
    return st.builds(
        _fill,
        st.just(n),
        st.randoms(use_true_random=False),
        st.lists(_REWARD, min_size=1, max_size=8),
        st.sampled_from(["repeat", "grid", "wide"]),
    )


def _same_floats(got, want):
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(got) == repr(want)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 127, 128, 129, 200, 300, 1000])
def test_sum_matches_numpy_pairwise_order(n):
    rnd = random.Random(n)
    for _ in range(20):
        values = [rnd.uniform(-1, 1) * 10 ** rnd.randint(-8, 8) for _ in range(n)]
        _same_floats(rewards_module._sum(values), float(np.sum(values)))
    _same_floats(rewards_module._sum([-0.0] * n), float(np.sum([-0.0] * n)))


@pytest.mark.parametrize("n", _EDGE_SIZES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_group_advantages_equal_numpy_bit_for_bit(n, data):
    rewards = data.draw(_group(n))
    want = oracles.group_advantages_numpy(rewards).tolist()
    for arg in (rewards, tuple(rewards), np.array(rewards)):
        got = group_advantages(arg)
        assert got.dtype == np.float64 and got.shape == (n,)
        _same_floats(got.tolist(), want)


@settings(max_examples=100, deadline=None)
@given(rewards=st.integers(2, 300).flatmap(_group))
def test_group_advantages_equal_numpy_any_size(rewards):
    _same_floats(group_advantages(rewards).tolist(), oracles.group_advantages_numpy(rewards).tolist())


_RATIO = st.one_of(st.sampled_from([0.9, 1.1, 1.0, 5e-324]), st.floats(1e-6, 10.0))


def _place(n, rnd, drawn):
    """n ratios around 1 with the drawn ones placed at random."""
    values = [rnd.uniform(0.5, 1.5) for _ in range(n)]
    for v in drawn:
        values[rnd.randrange(n)] = v
    return values


def _ratios(n):
    return st.builds(
        _place, st.just(n), st.randoms(use_true_random=False), st.lists(_RATIO, max_size=8)
    )
_KL = st.one_of(st.sampled_from([0, 0.0, -0.0]), st.floats(0.0, 10.0))


@pytest.mark.parametrize("n", [1] + _EDGE_SIZES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_surrogate_equals_numpy_bit_for_bit(n, data):
    ratios = data.draw(_ratios(n))
    advantages = data.draw(_group(n))
    kl = data.draw(_KL)
    cfg = RewardConfig(epsilon_clip=data.draw(st.sampled_from([0.1, 0.2, 0.5])))
    want = oracles.grpo_surrogate_numpy(ratios, advantages, kl, cfg.epsilon_clip, cfg.beta_kl)
    for adv in (advantages, np.array(advantages)):
        got = grpo_surrogate(tuple(ratios), adv, kl, cfg)
        assert type(got) is float
        _same_floats(got, want)


def test_surrogate_keeps_numpy_signed_zeros():
    # Zero advantages of either sign, and zero KL terms of either sign and
    # type: the mean of eight -0.0 terms is numpy's 0.0, of three -0.0.
    for ratios, advantages, kl in [
        ([1.0] * 8, [-0.0] * 8, 0.0),
        ([1.0] * 8, [-0.0] * 8, -0.0),
        ([0.5, 2.0], [-0.0, 0.0], 0),
        ([1.0] * 3, [-0.0] * 3, 0.0),
    ]:
        _same_floats(
            grpo_surrogate(ratios, advantages, kl),
            oracles.grpo_surrogate_numpy(ratios, advantages, kl),
        )


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
    with pytest.raises(ValueError):
        grpo_surrogate([[1.0, 1.0]], [[1.0, 1.0]], 0.0)  # nested
    with pytest.raises(ValueError):
        grpo_surrogate(np.ones((2, 2)), np.ones((2, 2)), 0.0)  # 2-D


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_surrogate_rejects_non_finite(bad):
    # NaN passed both the ratio sign test and the kl sign test.
    with pytest.raises(ValueError, match="finite"):
        grpo_surrogate([1.0, bad], [1.0, -1.0], 0.0)  # ratio
    with pytest.raises(ValueError, match="finite"):
        grpo_surrogate([1.0, 1.0], [bad, -1.0], 0.0)  # advantage
    with pytest.raises(ValueError, match="finite"):
        grpo_surrogate([1.0, 1.0], [1.0, -1.0], bad)  # kl


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


def test_reward_config_defaults():
    cfg = DEFAULT_REWARD_CONFIG
    assert (cfg.alpha, cfg.epsilon_clip, cfg.beta_kl) == (1.0, 0.1, 0.05)
