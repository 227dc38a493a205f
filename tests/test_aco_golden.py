"""Seeded-output goldens for the stochastic routing constructors.

The digests pin the exact solutions that ACO (TSP, OP, CVRP) and the Tsili
sampler return for fixed seeded instances and configs. A change to the
construction code that is meant to be a pure speed-up must keep them. The
cases cover a non-default alpha/beta, clustered coordinates, zero-prize OP
nodes (all-zero desirability rows) and CVRP tours that reload several times.
"""

import hashlib
from dataclasses import replace

import pytest

from cobench.heuristics import AcoConfig, aco_solve, op_tsili
from cobench.problems.types import GM2, ProblemKind

from conftest import make_instance


def _digest(sol) -> str:
    return hashlib.sha256(repr(sol).encode()).hexdigest()[:16]


# (kind, size, instance seed, generator overrides, AcoConfig kwargs) -> digest
ACO_CASES = [
    ((ProblemKind.TSP, 12, 1, {}, dict(ants=8, iterations=15, seed=3)), "77be82ed7264ebab"),
    ((ProblemKind.TSP, 20, 2, dict(distribution=GM2), dict(ants=10, iterations=10, seed=0)), "a392ce2e120e3bd3"),
    ((ProblemKind.TSP, 15, 3, {}, dict(ants=6, iterations=12, alpha=0.5, beta=3.0, seed=9)), "5d286781673368d7"),
    ((ProblemKind.OP, 15, 2, {}, dict(ants=8, iterations=15, seed=1)), "bd2818eb481869d5"),
    ((ProblemKind.OP, 25, 5, dict(prize_range=(0, 2)), dict(ants=10, iterations=10, seed=4)), "6e0fab8382566eaa"),
    ((ProblemKind.OP, 18, 6, dict(distribution=GM2), dict(ants=6, iterations=12, alpha=2.0, beta=1.0, seed=2)), "06eb0f06c19ee251"),
    ((ProblemKind.CVRP, 12, 4, {}, dict(ants=8, iterations=15, seed=2)), "a108a49630fab4d5"),
    ((ProblemKind.CVRP, 20, 7, dict(demand_range=(5, 9)), dict(ants=10, iterations=10, seed=5)), "6e1c2bc0839b4bce"),
    ((ProblemKind.CVRP, 16, 8, dict(distribution=GM2), dict(ants=6, iterations=12, alpha=0.5, beta=4.0, seed=6)), "ccc33d8a611c2fc1"),
]

# (size, instance seed, generator overrides, samples, seed) -> digest
TSILI_CASES = [
    ((15, 2, {}, 64, 0), "bd2818eb481869d5"),
    ((25, 5, dict(prize_range=(0, 2)), 64, 3), "96f506dadb6276a8"),
    ((30, 9, dict(distribution=GM2), 96, 8), "7906b4440ab0d36e"),
]


@pytest.mark.parametrize("case,expected", ACO_CASES)
def test_aco_seeded_outputs(case, expected):
    kind, size, seed, gen, cfg = case
    inst = make_instance(kind, size=size, seed=seed, **gen)
    assert _digest(aco_solve(inst, AcoConfig(**cfg))) == expected


@pytest.mark.parametrize("case,expected", TSILI_CASES)
def test_tsili_seeded_outputs(case, expected):
    size, seed, gen, samples, sample_seed = case
    inst = make_instance(ProblemKind.OP, size=size, seed=seed, **gen)
    assert _digest(op_tsili(inst, samples=samples, seed=sample_seed)) == expected


def test_aco_cvrp_rejects_demand_over_capacity():
    inst = make_instance(ProblemKind.CVRP, size=10, seed=0)
    p = inst.payload
    demands = list(p.demands)
    demands[3] = p.capacity + 1
    bad = replace(inst, payload=replace(p, demands=tuple(demands)))
    with pytest.raises(ValueError, match="exceeds the vehicle capacity"):
        aco_solve(bad, AcoConfig(ants=4, iterations=2, seed=0))
