"""Seeded-output golden for score() over every kind at the paper's sizes.

The digest pins the exact report and value that score() returns for seeded
mock-policy answers (echoed, degraded, corrupted and unparseable) plus
crafted bad-id candidates: out-of-range, negative, numpy, bool and float
ids, missing rows and deadlocked JSSP schedules. A change to the scorers
that is meant to be a pure speed-up must keep it.
"""

import hashlib
import random

import numpy as np

from cobench import parse
from cobench.evalharness.mock import MockPolicyConfig, mock_policy
from cobench.problems.types import (
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    SCHEDULING_KINDS,
    VertexSet,
)
from cobench.verify import score

from conftest import ALL_KINDS, make_instance, reference_solution

# Small, middle and top of the paper's size range per kind.
SIZES = {True: (5, 12, 20), False: (10, 55, 100)}
MOCK = MockPolicyConfig(format_fail_prob=0.15, infeasible_prob=0.35, perturbation=0.5, seed=3)
DRAWS = 8

GOLDEN = "841181d62980efb2"


def _bad_ids(inst, sol, rnd):
    """Candidates of the right type whose ids break the gate or the rules."""
    p = inst.payload
    if isinstance(sol, Route):
        nodes = sol.nodes
        return [
            Route(nodes + (p.n,)),
            Route((-1,) + nodes[1:]),
            Route(tuple(np.int64(v) for v in nodes)),
            Route(nodes[:-1] + (float(nodes[-1]),)),
            Route(tuple(bool(v) for v in nodes[:3])),
            Route(()),
        ]
    if isinstance(sol, RouteSet):
        return [
            RouteSet(sol.routes + ((0, p.n, 0),)),
            RouteSet(tuple(tuple(np.int64(v) for v in r) for r in sol.routes)),
            RouteSet(sol.routes[:-1]),
            RouteSet(((),)),
        ]
    if isinstance(sol, VertexSet):
        return [
            VertexSet(sol.vertices | {p.num_nodes}),
            VertexSet(frozenset(np.int64(v) for v in sol.vertices)),
            VertexSet(frozenset({-1})),
            VertexSet(frozenset()),
        ]
    if isinstance(sol, JobOrder):
        jobs = sol.jobs
        return [
            JobOrder(jobs + (p.num_jobs,)),
            JobOrder(tuple(np.int64(j) for j in jobs)),
            JobOrder((True, False)),
            JobOrder(jobs[:-1] + (jobs[0],)),
            JobOrder(()),
        ]
    seqs = sol.sequences
    shuffled = []
    for _ in range(4):
        rows = []
        for _ in range(p.num_machines):
            row = list(range(p.num_jobs))
            rnd.shuffle(row)
            rows.append(tuple(row))
        shuffled.append(MachineSchedules(tuple(rows)))
    return shuffled + [
        MachineSchedules(tuple(tuple(np.int64(j) for j in row) for row in seqs)),
        MachineSchedules(seqs[:-1]),
        MachineSchedules(((p.num_jobs,) + seqs[0][1:],) + seqs[1:]),
        MachineSchedules(((seqs[0][1],) + seqs[0][1:],) + seqs[1:]),
        MachineSchedules(((1.0,) + seqs[0][1:],) + seqs[1:]),
    ]


def _cases():
    rnd = random.Random(5)
    for kind in ALL_KINDS:
        for size in SIZES[kind in SCHEDULING_KINDS]:
            inst = make_instance(kind, size=size, seed=size)
            reference, _ = reference_solution(inst)
            for draw in range(DRAWS):
                text = mock_policy(inst, reference, MOCK, draw)
                yield inst, parse(text, kind).solution
            for sol in _bad_ids(inst, reference, rnd):
                yield inst, sol


def test_score_seeded_outputs():
    h = hashlib.sha256()
    deadlocked_top = 0
    for inst, sol in _cases():
        report, value = score(inst, sol)
        h.update(repr((inst.id, report, value)).encode())
        top = inst.kind is ProblemKind.JSSP and inst.payload.num_jobs == 20
        if top and report.zeta and report.constraints[0][1] and value is None:
            deadlocked_top += 1
    assert deadlocked_top > 0  # the deadlock branch is in the digest at 20x20
    assert h.hexdigest()[:16] == GOLDEN
