"""Deterministic stand-in policy for exercising the evaluation pipeline.

The mock either echoes a reference solution verbatim, degrades it while
keeping it feasible, corrupts it so that it is provably infeasible, or emits
unparseable prose. Every draw is a pure function of (seed, instance id, draw),
so runs are reproducible regardless of sampling order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from ..problems.types import (
    Instance,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    Solution,
    VertexSet,
)
from ..tai.render import format_solution
from ..verify import score

_PROSE = (
    "This instance looks quite challenging; a good tour probably follows the "
    "convex hull, but I cannot commit to an exact sequence."
)


@dataclass(frozen=True)
class MockPolicyConfig:
    format_fail_prob: float = 0.0
    infeasible_prob: float = 0.0
    perturbation: float = 0.0  # chance of a feasibility-preserving degradation
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("format_fail_prob", "infeasible_prob", "perturbation"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")


def _rng_for(cfg: MockPolicyConfig, instance_id: str, draw: int) -> random.Random:
    digest = hashlib.sha256(f"{cfg.seed}|{instance_id}|{draw}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _corrupt(inst: Instance, sol: Solution, rng: random.Random) -> Solution:
    """Return a solution that provably violates a constraint."""
    kind = inst.kind
    if kind is ProblemKind.TSP:
        nodes = [v for v in sol.nodes[1:-1] if v != max(sol.nodes)]
        return Route(tuple([0] + nodes + [0]))  # one city missing
    if kind is ProblemKind.OP:
        inner = [v for v in sol.nodes[1:] if v != 0]
        if not inner:
            return Route((0, inst.payload.n))  # node id out of range
        return Route(tuple([0] + inner + [inner[0]]))  # repeated visit
    if kind is ProblemKind.CVRP:
        routes = [list(r) for r in sol.routes]
        first = next((r for r in routes if len(r) > 2), None)
        if first is None:
            return RouteSet(((0, 1, 1, 0),))
        first.insert(-1, first[1])  # customer served twice
        return RouteSet(tuple(tuple(r) for r in routes))
    if kind is ProblemKind.MIS:
        edges = inst.payload.edges
        if edges:
            u, v = edges[0]
            return VertexSet(sol.vertices | {u, v})  # adjacent pair inside
        return VertexSet(sol.vertices | {inst.payload.num_nodes})  # out of range
    if kind is ProblemKind.MVC:
        edges = inst.payload.edges
        if edges:
            u, v = edges[0]
            return VertexSet(sol.vertices - {u, v})  # first edge uncovered
        return VertexSet(sol.vertices | {inst.payload.num_nodes})
    if kind is ProblemKind.PFSP:
        return JobOrder(tuple(sol.jobs[1:]))  # one job dropped
    seqs = [list(s) for s in sol.sequences]
    seqs[0] = seqs[0] + [seqs[0][0]]  # job repeated on machine 0
    return MachineSchedules(tuple(tuple(s) for s in seqs))


def _degrade(inst: Instance, sol: Solution, rng: random.Random) -> Solution:
    """Return a feasible but typically worse variant of the solution."""
    kind = inst.kind
    if kind is ProblemKind.TSP:
        inner = list(sol.nodes[1:-1])
        if len(inner) >= 2:
            i, j = rng.sample(range(len(inner)), 2)
            inner[i], inner[j] = inner[j], inner[i]
        return Route(tuple([0] + inner + [0]))
    if kind is ProblemKind.OP:
        nodes = list(sol.nodes)
        trailing_depot = len(nodes) > 1 and nodes[-1] == 0
        inner = [v for v in nodes[1:] if v != 0]
        if inner:
            inner.pop()  # shed one prize, length can only shrink on a path
        out = [0] + inner + ([0] if trailing_depot else [])
        return Route(tuple(out))
    if kind is ProblemKind.CVRP:
        routes = [list(r) for r in sol.routes]
        for r in routes:
            if len(r) > 4:  # swap two customers inside one route
                i, j = rng.sample(range(1, len(r) - 1), 2)
                r[i], r[j] = r[j], r[i]
                break
        return RouteSet(tuple(tuple(r) for r in routes))
    if kind is ProblemKind.MIS:
        verts = sorted(sol.vertices)
        if verts:
            verts.remove(rng.choice(verts))
        return VertexSet(frozenset(verts))
    if kind is ProblemKind.MVC:
        missing = sorted(set(range(inst.payload.num_nodes)) - sol.vertices)
        if missing:
            return VertexSet(sol.vertices | {rng.choice(missing)})
        return sol
    if kind is ProblemKind.PFSP:
        jobs = list(sol.jobs)
        if len(jobs) >= 2:
            i, j = rng.sample(range(len(jobs)), 2)
            jobs[i], jobs[j] = jobs[j], jobs[i]
        return JobOrder(tuple(jobs))
    # JSSP: one fixed job priority order on every machine decodes without
    # deadlock (jobs can always be run one after another), but is rarely good.
    jobs = len(sol.sequences[0])
    order = list(range(jobs))
    rng.shuffle(order)
    return MachineSchedules(tuple(tuple(order) for _ in sol.sequences))


def mock_policy(
    inst: Instance,
    reference: Solution,
    cfg: MockPolicyConfig,
    draw: int = 0,
) -> str:
    """One sampled completion for the instance, as raw response text."""
    rng = _rng_for(cfg, inst.id, draw)
    roll = rng.random()
    if roll < cfg.format_fail_prob:
        return _PROSE
    roll = rng.random()
    sol: Solution
    if roll < cfg.infeasible_prob:
        sol = _corrupt(inst, reference, rng)
    elif rng.random() < cfg.perturbation:
        sol = _degrade(inst, reference, rng)
    else:
        sol = reference
    value = score(inst, sol)[1]
    return format_solution(inst.kind, sol, 0.0 if value is None else value)
