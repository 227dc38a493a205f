"""Shared helpers for the test suite."""

import os
import random
import tempfile

import pytest
from hypothesis import settings

from cobench.heuristics import solve
from cobench.problems.generate import gen_instance
from cobench.problems.types import GenConfig, ProblemKind
from cobench.verify import check, objective

# Property tests keep no example database, and hypothesis keeps its other
# caches (parsed source constants, unicode tables) outside the working tree,
# so a test run leaves no .hypothesis/ directory in the repository.
settings.register_profile("cobench", database=None)
settings.load_profile("cobench")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "cobench-hypothesis")
)

ALL_KINDS = list(ProblemKind)

ROUTING_KINDS = (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP)
GRAPH_KINDS = (ProblemKind.MIS, ProblemKind.MVC)
SCHEDULING_KINDS = (ProblemKind.PFSP, ProblemKind.JSSP)

# A cheap deterministic method per kind, used wherever a test just needs
# some feasible reference solution.
DEFAULT_METHOD = {
    ProblemKind.TSP: "nn",
    ProblemKind.OP: "greedy",
    ProblemKind.CVRP: "sweep",
    ProblemKind.MIS: "greedy",
    ProblemKind.MVC: "greedy",
    ProblemKind.PFSP: "neh",
    ProblemKind.JSSP: "spt",
}


def make_instance(kind, size=None, seed=0, **cfg_kwargs):
    """One instance with a pinned size (both J and M for scheduling)."""
    if size is not None:
        cfg_kwargs.setdefault("size_range", (size, size))
    return gen_instance(kind, GenConfig(seed=seed, **cfg_kwargs))


def reference_solution(inst, seed=0):
    res = solve(inst, DEFAULT_METHOD[inst.kind], seed=seed)
    report = check(inst, res.solution)
    assert report.feasible, f"reference method infeasible on {inst.id}"
    return res.solution, res.objective.value


def feasible_pair(kind, size=None, seed=0):
    inst = make_instance(kind, size=size, seed=seed)
    sol, value = reference_solution(inst)
    return inst, sol, value


@pytest.fixture(scope="session")
def small_instances():
    """One small instance per kind, reused by read-only tests."""
    sizes = {
        ProblemKind.TSP: 12,
        ProblemKind.OP: 12,
        ProblemKind.CVRP: 9,
        ProblemKind.MIS: 15,
        ProblemKind.MVC: 15,
        ProblemKind.PFSP: 6,
        ProblemKind.JSSP: 5,
    }
    return {kind: make_instance(kind, size=sizes[kind], seed=7) for kind in ALL_KINDS}


def rng(seed=0):
    return random.Random(seed)


__all__ = [
    "ALL_KINDS",
    "ROUTING_KINDS",
    "GRAPH_KINDS",
    "SCHEDULING_KINDS",
    "DEFAULT_METHOD",
    "make_instance",
    "reference_solution",
    "feasible_pair",
    "rng",
    "objective",
]
