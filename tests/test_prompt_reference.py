"""Differential test of the prompt text against the per-entity renderer.

`encode` fills each input from one row template per kind in one `%` call;
`oracles.reference_prompt` writes the same prompt one f-string per node,
neighbour, edge, machine and job. The two must agree byte for byte on the
instances the seeded golden never builds: non-integral, negative, -0.0 and
huge coordinates and plain-int ones, float prizes and demands, numpy-int
edge ids, graphs without edges or with one node, an OP without a length
limit, every k from 1 to n + 1, and berlin52.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cobench import encode, render_prompt
from cobench.problems.benchmarks import parse_tsplib
from cobench.problems.types import (
    GraphInstance,
    Instance,
    ProblemKind,
    RoutingInstance,
    SchedulingInstance,
)

DATA = Path(__file__).parent / "data"

COORD = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, -0.0, 0.0, -2.25, 1e20, -1e20, 1e-7, 123456.789, 2.0**52 + 1]),
)
AMOUNT = st.one_of(st.integers(0, 100), st.floats(0, 100, allow_nan=False), st.just(2.5))


def _agree(inst):
    p = inst.payload
    # Scheduling rows hold jobs or machines: k passes the longer of the two.
    n = max(p.num_jobs, p.num_machines) if isinstance(p, SchedulingInstance) else p.n
    for k in range(1, n + 2):
        assert render_prompt(encode(inst, k)) == oracles.reference_prompt(inst, k), (inst, k)


@st.composite
def routing_instances(draw):
    kind = draw(st.sampled_from([ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP]))
    n = draw(st.integers(2, 12))
    # Small integer boxes make distance ties; the rest mixes in every coordinate form.
    coord = st.integers(0, 3) if draw(st.booleans()) else COORD
    coords = tuple((draw(coord), draw(coord)) for _ in range(n))
    amounts = tuple(draw(st.lists(AMOUNT, min_size=n, max_size=n)))
    payload = RoutingInstance(coords=coords)
    if kind is ProblemKind.OP:
        limit = draw(st.one_of(st.just(math.inf), st.floats(0.5, 1e6)))
        payload = RoutingInstance(coords=coords, prizes=amounts, distance_limit=limit)
    elif kind is ProblemKind.CVRP:
        payload = RoutingInstance(coords=coords, demands=amounts, capacity=draw(st.integers(1, 50)))
    return Instance(kind=kind, payload=payload, id="routing")


@st.composite
def graph_instances(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        edges = [(np.int64(u), np.intp(v)) for u, v in edges]
    kind = draw(st.sampled_from([ProblemKind.MIS, ProblemKind.MVC]))
    return Instance(kind=kind, payload=GraphInstance(n, tuple(edges)), id="graph")


@st.composite
def scheduling_instances(draw):
    jobs, machines = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    time = st.one_of(st.integers(1, 9), st.sampled_from([2.5, 7.75]))
    ptimes = tuple(tuple(draw(time) for _ in range(machines)) for _ in range(jobs))
    if draw(st.booleans()):
        return Instance(ProblemKind.PFSP, SchedulingInstance(ptimes), id="pfsp")
    orders = tuple(tuple(draw(st.permutations(range(machines)))) for _ in range(jobs))
    return Instance(ProblemKind.JSSP, SchedulingInstance(ptimes, orders), id="jssp")


@settings(deadline=None, max_examples=300)
@given(inst=routing_instances())
def test_routing_prompts_match_reference(inst):
    _agree(inst)


@settings(deadline=None, max_examples=200)
@given(inst=graph_instances())
def test_graph_prompts_match_reference(inst):
    _agree(inst)


@settings(deadline=None, max_examples=100)
@given(inst=scheduling_instances())
def test_scheduling_prompts_match_reference(inst):
    _agree(inst)


def test_degenerate_graphs_match_reference():
    for payload in (GraphInstance(1, ()), GraphInstance(5, ()), GraphInstance(2, ((0, 1),))):
        _agree(Instance(kind=ProblemKind.MIS, payload=payload, id="g"))


def test_op_without_limit_matches_reference():
    coords = ((0.5, -0.0), (-3, 4), (1e20, 2.25), (7, 7.0))
    payload = RoutingInstance(coords=coords, prizes=(0, 1.5, 2, 3), distance_limit=math.inf)
    inst = Instance(kind=ProblemKind.OP, payload=payload, id="op")
    _agree(inst)
    assert "no limit on the route length" in render_prompt(encode(inst))


def test_berlin52_matches_reference():
    _agree(parse_tsplib(DATA / "berlin52.tsp"))


def test_huge_k_matches_reference():
    # k far above any row length lists every neighbour, job or operation.
    insts = [
        Instance(ProblemKind.MVC, GraphInstance(4, ((0, 1), (0, 2), (2, 3))), id="g"),
        Instance(ProblemKind.TSP, RoutingInstance(((0, 0), (3, 4), (1.5, -2))), id="t"),
        Instance(ProblemKind.PFSP, SchedulingInstance(((1, 2), (3, 4), (2, 2))), id="s"),
    ]
    for inst in insts:
        k = 10**20
        assert render_prompt(encode(inst, k)) == oracles.reference_prompt(inst, k)
