"""Seeded-output goldens for the stochastic routing constructors.

The digests pin the exact solutions that ACO (TSP, OP, CVRP) and the Tsili
sampler return for fixed seeded instances and configs. A change to the
construction code that is meant to be a pure speed-up must keep them. The
cases cover clustered coordinates, zero-prize OP nodes (all-zero
desirability rows), CVRP tours that reload several times, and ants that
choose from candidate lists shorter than the row (OP at 25 nodes, TSP at 40
and 60, and every kind at every fifth size from 25 to 60).
"""

import hashlib
from dataclasses import replace

import pytest

from cobench.heuristics import AcoConfig, aco_solve, op_tsili
from cobench.problems.generate import gen_instance
from cobench.problems.types import GM2, GenConfig, ProblemKind

from conftest import make_instance


def _digest(sol) -> str:
    return hashlib.sha256(repr(sol).encode()).hexdigest()[:16]


# case id -> ((kind, size, instance seed, generator overrides, AcoConfig
# kwargs), digest). An id stays with its case when other cases go.
ACO_CASES = {
    "case0": ((ProblemKind.TSP, 12, 1, {}, dict(ants=8, iterations=15, seed=3)), "77be82ed7264ebab"),
    "case1": ((ProblemKind.TSP, 20, 2, dict(distribution=GM2), dict(ants=10, iterations=10, seed=0)), "a392ce2e120e3bd3"),
    "case3": ((ProblemKind.OP, 15, 2, {}, dict(ants=8, iterations=15, seed=1)), "bd2818eb481869d5"),
    "case4": ((ProblemKind.OP, 25, 5, dict(prize_range=(0, 2)), dict(ants=10, iterations=10, seed=4)), "158af35d94940fb9"),
    "case6": ((ProblemKind.CVRP, 12, 4, {}, dict(ants=8, iterations=15, seed=2)), "a108a49630fab4d5"),
    "case7": ((ProblemKind.CVRP, 20, 7, dict(demand_range=(5, 9)), dict(ants=10, iterations=10, seed=5)), "6e1c2bc0839b4bce"),
    "case8": ((ProblemKind.TSP, 40, 8, {}, dict(ants=10, iterations=10, seed=6)), "5adc383e966cb1e6"),
    "case9": ((ProblemKind.TSP, 60, 9, dict(distribution=GM2), dict(ants=12, iterations=8, seed=7)), "96db82f233eb70e4"),
}

# (size, instance seed, generator overrides, samples, seed) -> digest
TSILI_CASES = [
    ((15, 2, {}, 64, 0), "bd2818eb481869d5"),
    ((25, 5, dict(prize_range=(0, 2)), 64, 3), "96f506dadb6276a8"),
    ((30, 9, dict(distribution=GM2), 96, 8), "7906b4440ab0d36e"),
]


@pytest.mark.parametrize(
    "case,expected",
    [pytest.param(case, digest, id=f"{name}-{digest}") for name, (case, digest) in ACO_CASES.items()],
)
def test_aco_seeded_outputs(case, expected):
    kind, size, seed, gen, cfg = case
    inst = make_instance(kind, size=size, seed=seed, **gen)
    assert _digest(aco_solve(inst, AcoConfig(**cfg))) == expected


def test_aco_tsp_whole_row_lists_keep_every_small_output():
    # Up to 21 nodes a candidate list holds every other node, so ACO-TSP
    # must return what the whole-row roulette returned before lists existed.
    h = hashlib.sha256()
    for n in range(2, 22):
        for s in range(3):
            inst = gen_instance(ProblemKind.TSP, GenConfig(size_range=(n, n), seed=s))
            h.update(repr(aco_solve(inst, AcoConfig(ants=7, iterations=12, seed=s))).encode())
    assert h.hexdigest()[:16] == "5aa7775b636b49b5"


def test_aco_op_cvrp_whole_row_lists_keep_every_small_output():
    # Up to 21 nodes a candidate list holds every other node, so ACO-OP and
    # ACO-CVRP must return what the whole-row roulette returned before they
    # chose from lists.
    h = hashlib.sha256()
    for kind in (ProblemKind.OP, ProblemKind.CVRP):
        for n in range(2, 22):
            for s in range(3):
                inst = gen_instance(kind, GenConfig(size_range=(n, n), seed=s))
                h.update(repr(aco_solve(inst, AcoConfig(ants=7, iterations=12, seed=s))).encode())
    assert h.hexdigest()[:16] == "c55abad7cd0b0d62"


def test_aco_tsp_mid_size_outputs():
    # 25-60 nodes: candidate lists shorter than the row, and late in each
    # tour ants whose list is used up
    h = hashlib.sha256()
    for n in range(25, 61, 5):
        for s in range(3):
            inst = gen_instance(ProblemKind.TSP, GenConfig(size_range=(n, n), seed=s))
            h.update(repr(aco_solve(inst, AcoConfig(ants=20, iterations=30, seed=s))).encode())
    assert h.hexdigest()[:16] == "f718edac00062159"


def test_aco_op_cvrp_mid_size_outputs():
    # 25-60 nodes: lists shorter than the row, and ants whose budget or
    # capacity rules out every candidate but leaves nodes off the list
    h = hashlib.sha256()
    for kind in (ProblemKind.OP, ProblemKind.CVRP):
        for n in range(25, 61, 5):
            for s in range(3):
                inst = gen_instance(kind, GenConfig(size_range=(n, n), seed=s))
                h.update(repr(aco_solve(inst, AcoConfig(ants=10, iterations=12, seed=s))).encode())
    assert h.hexdigest()[:16] == "0023010cb9fc0fc4"


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
