"""Feasibility checker and objective tests, cross-checked against the
independent implementations in oracles.py."""

import copy
import itertools
import math
import pickle
import random
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cobench.problems.benchmarks import parse_tsplib
from cobench.problems.generate import gen_instance
from cobench.problems.io import instance_to_json
from cobench.problems.types import (
    CLUSTERED,
    GM2,
    UNIFORM,
    GenConfig,
    GraphInstance,
    Instance,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    RoutingInstance,
    SchedulingInstance,
    SOLUTION_TYPE_BY_KIND,
    VertexSet,
)
from cobench.verify import (
    CONSTRAINT_NAMES,
    FeasibilityReport,
    check,
    jssp_decode,
    objective,
    pfsp_makespan,
    score,
)

from cobench import verify
from cobench.tai.parse import parse
from cobench.tai.render import format_solution
from conftest import ALL_KINDS, make_instance, reference_solution


def _flags(report):
    return tuple(ok for _, ok in report.constraints)


def _routing(coords, **kw):
    return RoutingInstance(coords=tuple(coords), **kw)


def _tsp(coords):
    return Instance(kind=ProblemKind.TSP, payload=_routing(coords), id="t")


def _op(coords, prizes, limit):
    return Instance(
        kind=ProblemKind.OP,
        payload=_routing(coords, prizes=tuple(prizes), distance_limit=limit),
        id="o",
    )


def _cvrp(coords, demands, capacity):
    return Instance(
        kind=ProblemKind.CVRP,
        payload=_routing(coords, demands=tuple(demands), capacity=capacity),
        id="c",
    )


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# TSP


def test_tsp_perfect_tour():
    report = check(_tsp(SQUARE), Route((0, 1, 2, 3, 0)))
    assert report.zeta and report.feasible
    assert _flags(report) == (True, True)


def test_tsp_rotation_is_feasible():
    report = check(_tsp(SQUARE), Route((2, 3, 0, 1, 2)))
    assert report.feasible


def test_tsp_open_path():
    report = check(_tsp(SQUARE), Route((0, 1, 2, 3)))
    assert _flags(report) == (True, False)  # visits all, never returns
    assert not report.feasible


def test_tsp_duplicate_and_missing():
    report = check(_tsp(SQUARE), Route((0, 1, 1, 3, 0)))
    assert _flags(report) == (False, True)
    report = check(_tsp(SQUARE), Route((0, 1, 3, 0)))
    assert _flags(report) == (False, True)


def test_tsp_out_of_range_id():
    report = check(_tsp(SQUARE), Route((0, 9, 1, 2, 3, 0)))
    assert _flags(report)[0] is False
    assert not report.feasible


def test_tsp_objective_is_cycle_length():
    val = objective(_tsp(SQUARE), Route((0, 1, 2, 3, 0)))
    assert val.value == pytest.approx(4.0)
    assert val.sense.value == "min"


def test_tsp_objective_raises_out_of_range():
    with pytest.raises(ValueError):
        objective(_tsp(SQUARE), Route((0, 9, 0)))
    with pytest.raises(ValueError):
        objective(_tsp(SQUARE), Route(()))


# ---------------------------------------------------------------------------
# OP


OP_COORDS = [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)]  # 0-1 and 1-2 are 5 apart
OP_PRIZES = [0, 7, 9]


def test_op_feasible_with_trailing_return():
    inst = _op(OP_COORDS, OP_PRIZES, limit=10.0)
    report = check(inst, Route((0, 1, 0)))
    assert report.feasible
    assert dict(report.margins)["distance_limit"] == pytest.approx(0.0)


def test_op_depot_only_route_is_feasible():
    inst = _op(OP_COORDS, OP_PRIZES, limit=10.0)
    report = check(inst, Route((0,)))
    assert report.feasible
    assert objective(inst, Route((0,))).value == 0.0


def test_op_wrong_start():
    inst = _op(OP_COORDS, OP_PRIZES, limit=100.0)
    report = check(inst, Route((1, 2)))
    assert _flags(report) == (False, True, True)


def test_op_revisit():
    inst = _op(OP_COORDS, OP_PRIZES, limit=100.0)
    report = check(inst, Route((0, 1, 2, 1)))
    assert _flags(report)[1] is False


def test_op_budget_violation_margin():
    inst = _op(OP_COORDS, OP_PRIZES, limit=8.0)
    report = check(inst, Route((0, 1, 2)))  # length 10 > 8
    assert _flags(report) == (True, True, False)
    assert dict(report.margins)["distance_limit"] == pytest.approx(-2.0)
    assert not report.feasible


def test_op_objective_counts_distinct_prizes():
    inst = _op(OP_COORDS, OP_PRIZES, limit=100.0)
    assert objective(inst, Route((0, 1, 2))).value == 16.0
    assert objective(inst, Route((0, 1, 0))).value == 7.0  # depot revisit adds 0
    assert objective(inst, Route((0, 1, 2))).sense.value == "max"


def test_op_out_of_range_blocks_budget_check():
    inst = _op(OP_COORDS, OP_PRIZES, limit=100.0)
    report = check(inst, Route((0, 5)))
    assert _flags(report)[2] is False
    assert report.margins == ()


# ---------------------------------------------------------------------------
# CVRP


CVRP_COORDS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
CVRP_DEMANDS = [0, 4, 5, 6]


def test_cvrp_feasible():
    inst = _cvrp(CVRP_COORDS, CVRP_DEMANDS, capacity=9)
    sol = RouteSet(((0, 1, 2, 0), (0, 3, 0)))
    report = check(inst, sol)
    assert report.feasible
    assert dict(report.margins)["capacity"] == pytest.approx(0.0)  # 4+5 == 9


def test_cvrp_missing_and_duplicate_customer():
    inst = _cvrp(CVRP_COORDS, CVRP_DEMANDS, capacity=20)
    report = check(inst, RouteSet(((0, 1, 2, 0),)))
    assert _flags(report)[1] is False
    report = check(inst, RouteSet(((0, 1, 2, 0), (0, 3, 1, 0))))
    assert _flags(report)[1] is False


def test_cvrp_capacity_violation():
    inst = _cvrp(CVRP_COORDS, CVRP_DEMANDS, capacity=9)
    sol = RouteSet(((0, 1, 2, 3, 0),))  # load 15 > 9
    report = check(inst, sol)
    assert _flags(report) == (True, True, False)
    assert dict(report.margins)["capacity"] == pytest.approx(-6.0)


def test_cvrp_bad_endpoints():
    inst = _cvrp(CVRP_COORDS, CVRP_DEMANDS, capacity=20)
    report = check(inst, RouteSet(((1, 2, 3, 0),)))
    assert _flags(report)[0] is False
    report = check(inst, RouteSet(((0, 1, 2, 3),)))
    assert _flags(report)[0] is False


def test_cvrp_empty_routeset_infeasible():
    inst = _cvrp(CVRP_COORDS, CVRP_DEMANDS, capacity=20)
    report = check(inst, RouteSet(()))
    assert not report.feasible
    assert _flags(report)[0] is False


def test_cvrp_empty_vehicle_tolerated():
    inst = _cvrp(CVRP_COORDS, CVRP_DEMANDS, capacity=20)
    report = check(inst, RouteSet(((0, 1, 2, 3, 0), ())))
    assert report.feasible


def test_cvrp_objective_sums_routes():
    inst = _cvrp(CVRP_COORDS, CVRP_DEMANDS, capacity=9)
    sol = RouteSet(((0, 1, 0), (0, 3, 0)))
    assert objective(inst, sol).value == pytest.approx(4.0)


# Over the limit by nothing, by half of verify.TOLERANCE (1e-6), and by just
# over it. Written out, so that a changed tolerance fails here.
LIMIT_OVERRUNS = [(0.0, True), (5e-7, True), (1.01e-6, False)]


@pytest.mark.parametrize("over, feasible", LIMIT_OVERRUNS)
def test_op_route_length_at_its_limit(over, feasible):
    inst = _op(OP_COORDS, OP_PRIZES, limit=10.0 - over)  # the route is 10 long
    assert check(inst, Route((0, 1, 0))).feasible is feasible


@pytest.mark.parametrize("over, feasible", LIMIT_OVERRUNS)
def test_cvrp_load_at_its_capacity(over, feasible):
    inst = _cvrp(CVRP_COORDS, [0, 4, 5 + over, 6], capacity=9)
    assert check(inst, RouteSet(((0, 1, 2, 0), (0, 3, 0)))).feasible is feasible


# ---------------------------------------------------------------------------
# MIS / MVC


P3 = GraphInstance(num_nodes=3, edges=((0, 1), (1, 2)))


def test_mis_checks():
    inst = Instance(kind=ProblemKind.MIS, payload=P3, id="g")
    assert check(inst, VertexSet.of([0, 2])).feasible
    assert not check(inst, VertexSet.of([0, 1])).feasible
    assert check(inst, VertexSet(frozenset())).feasible  # empty set is independent
    assert not check(inst, VertexSet.of([0, 7])).feasible  # out of range


def test_mvc_checks():
    inst = Instance(kind=ProblemKind.MVC, payload=P3, id="g")
    assert check(inst, VertexSet.of([1])).feasible
    assert not check(inst, VertexSet.of([0])).feasible  # edge (1,2) uncovered
    assert not check(inst, VertexSet.of([1, 9])).feasible
    edgeless = Instance(
        kind=ProblemKind.MVC, payload=GraphInstance(num_nodes=2, edges=()), id="g2"
    )
    assert check(edgeless, VertexSet(frozenset())).feasible


def test_set_objective_is_cardinality():
    inst = Instance(kind=ProblemKind.MIS, payload=P3, id="g")
    assert objective(inst, VertexSet.of([0, 2])).value == 2.0
    with pytest.raises(ValueError):
        objective(inst, VertexSet.of([5]))


# ---------------------------------------------------------------------------
# PFSP


PFSP_2x2 = SchedulingInstance(ptimes=((1, 2), (3, 1)))


def test_pfsp_makespan_worked_example():
    assert pfsp_makespan(PFSP_2x2.ptimes, (0, 1)) == 5.0
    assert pfsp_makespan(PFSP_2x2.ptimes, (1, 0)) == 6.0


def test_pfsp_makespan_matches_dag_oracle():
    rnd = random.Random(5)
    for _ in range(30):
        jobs = rnd.randint(2, 7)
        machines = rnd.randint(2, 6)
        ptimes = [[rnd.randint(1, 50) for _ in range(machines)] for _ in range(jobs)]
        order = list(range(jobs))
        rnd.shuffle(order)
        assert pfsp_makespan(ptimes, order) == pytest.approx(
            oracles.pfsp_makespan_dag(ptimes, order)
        )


def test_pfsp_check():
    inst = Instance(kind=ProblemKind.PFSP, payload=PFSP_2x2, id="p")
    assert check(inst, JobOrder((1, 0))).feasible
    assert not check(inst, JobOrder((0, 0))).feasible
    assert not check(inst, JobOrder((0,))).feasible
    assert not check(inst, JobOrder((0, 3))).feasible


def test_pfsp_objective_raises_on_bad_order():
    inst = Instance(kind=ProblemKind.PFSP, payload=PFSP_2x2, id="p")
    with pytest.raises(ValueError):
        objective(inst, JobOrder(()))
    with pytest.raises(ValueError):
        objective(inst, JobOrder((0, 9)))


# ---------------------------------------------------------------------------
# JSSP


JSSP_2x2 = SchedulingInstance(
    ptimes=((2, 3), (4, 1)),
    machine_order=((0, 1), (1, 0)),
)
JSSP_INST = Instance(kind=ProblemKind.JSSP, payload=JSSP_2x2, id="j")


def test_jssp_feasible_schedule():
    sol = MachineSchedules(((0, 1), (1, 0)))
    report = check(JSSP_INST, sol)
    assert report.feasible
    assert _flags(report) == (True, True, True)
    # m0: job0 0-2, then job1's 2nd op 4-5. m1: job1 0-4, then job0's 2nd op 4-7.
    assert objective(JSSP_INST, sol).value == pytest.approx(7.0)
    assert oracles.jssp_sim(JSSP_2x2, [[0, 1], [1, 0]]) == pytest.approx(7.0)


def test_jssp_crafted_deadlock():
    # m0 wants job1 first, but job1 reaches m0 only after m1; m1 wants job0
    # first, but job0 reaches m1 only after m0. Circular wait.
    sol = MachineSchedules(((1, 0), (0, 1)))
    assert jssp_decode(JSSP_2x2, sol.sequences) is None
    report = check(JSSP_INST, sol)
    assert _flags(report) == (True, False, False)
    assert oracles.jssp_sim(JSSP_2x2, [[1, 0], [0, 1]]) is None
    with pytest.raises(ValueError, match="deadlock"):
        objective(JSSP_INST, sol)


def test_jssp_bad_sequences_all_false():
    for sol in (
        MachineSchedules(((0, 1),)),            # missing a machine
        MachineSchedules(((0, 0), (1, 0))),      # not a permutation
        MachineSchedules(((0, 1), (1, 5))),      # out of range
        MachineSchedules(((0,), (1,))),          # wrong length rows
    ):
        report = check(JSSP_INST, sol)
        assert _flags(report) == (False, False, False)
        with pytest.raises(ValueError):
            objective(JSSP_INST, sol)


def test_jssp_decode_matches_event_sim():
    rnd = random.Random(11)
    agreements = deadlocks = 0
    for _ in range(60):
        jobs = rnd.randint(2, 5)
        machines = rnd.randint(2, 4)
        ptimes = tuple(
            tuple(rnd.randint(1, 30) for _ in range(machines)) for _ in range(jobs)
        )
        orders = []
        for _ in range(jobs):
            o = list(range(machines))
            rnd.shuffle(o)
            orders.append(tuple(o))
        payload = SchedulingInstance(ptimes=ptimes, machine_order=tuple(orders))
        inst = Instance(kind=ProblemKind.JSSP, payload=payload, id="jr")
        seqs = []
        for _ in range(machines):
            s = list(range(jobs))
            rnd.shuffle(s)
            seqs.append(tuple(s))
        sol = MachineSchedules(tuple(seqs))
        sim = oracles.jssp_sim(payload, [list(s) for s in seqs])
        decoded = jssp_decode(payload, sol.sequences)
        if sim is None:
            assert decoded is None
            assert _flags(check(inst, sol)) == (True, False, False)
            deadlocks += 1
        else:
            start = np.array(decoded[0])
            # Scoring trusts the decode for both constraints; check them here
            # from the start times alone.
            finish = start + np.asarray(ptimes)
            assert (start[:, 1:] >= finish[:, :-1]).all()  # each job in order
            for m in range(machines):
                on_m = sorted(
                    (start[j, i], finish[j, i])
                    for j in range(jobs)
                    for i in range(machines)
                    if orders[j][i] == m
                )
                assert all(f <= s for (_, f), (s, _) in zip(on_m, on_m[1:]))
            makespan = max(
                start[(j, i)] + ptimes[j][i]
                for j in range(jobs)
                for i in range(machines)
            )
            assert makespan == pytest.approx(sim)
            assert check(inst, sol).feasible
            agreements += 1
    assert agreements > 10 and deadlocks > 5  # both branches exercised


def test_jssp_scoring_keeps_payload_value_semantics():
    # Scoring leaves the frozen payload as it was: equality, repr, fields
    # and the JSON form do not change, a pickle or a deepcopy scores the
    # same, and a replace() copy scores from its own times.
    cfg = GenConfig(seed=5, size_range=(6, 6))
    inst = gen_instance(ProblemKind.JSSP, cfg)
    text, shown = instance_to_json(inst), repr(inst)
    sol = MachineSchedules((tuple(range(6)),) * 6)
    scored = score(inst, sol)
    assert scored[0].feasible
    assert inst == gen_instance(ProblemKind.JSSP, cfg)
    assert instance_to_json(inst) == text and repr(inst) == shown
    assert [f.name for f in fields(inst.payload)] == ["ptimes", "machine_order"]
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert twin == inst and score(twin, sol) == scored

    doubled = replace(
        inst.payload, ptimes=tuple(tuple(2 * t for t in row) for row in inst.payload.ptimes)
    )
    report, value = score(replace(inst, payload=doubled), sol)
    assert report == scored[0] and value == 2 * scored[1]
    assert value == oracles.jssp_sim(doubled, [list(r) for r in sol.sequences])
    assert score(inst, sol) == scored
    assert list(vars(inst.payload)) == ["ptimes", "machine_order"]


_JSSP_TIMES = {
    "int": st.integers(1, 100),
    "tie": st.integers(1, 3),
    "float": st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    "huge": st.integers(2**53, 2**62),
}


@st.composite
def _jssp_cases(draw):
    """A payload of 1-8 jobs by 1-8 machines and one permutation of the
    jobs per machine: one shared order (never deadlocks) or one each."""
    jobs, machines = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    times = _JSSP_TIMES[draw(st.sampled_from(sorted(_JSSP_TIMES)))]
    ptimes = tuple(tuple(draw(times) for _ in range(machines)) for _ in range(jobs))
    orders = tuple(draw(st.permutations(range(machines))) for _ in range(jobs))
    perms = st.permutations(range(jobs)).map(tuple)
    if draw(st.booleans()):
        seqs = (draw(perms),) * machines
    else:
        seqs = tuple(draw(perms) for _ in range(machines))
    return SchedulingInstance(ptimes=ptimes, machine_order=orders), seqs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_jssp_cases())
@example(case=(SchedulingInstance(ptimes=((7,),), machine_order=((0,),)), ((0,),)))
@example(case=(JSSP_2x2, ((1, 0), (0, 1))))  # deadlock
def test_jssp_decode_equals_the_kahn_walk(case):
    payload, seqs = case
    inst = Instance(kind=ProblemKind.JSSP, payload=payload, id="jh")
    sol = MachineSchedules(seqs)
    kahn = oracles.jssp_kahn_start_times(payload, seqs)
    decoded = jssp_decode(payload, seqs)
    report, value = score(inst, sol)
    sim = oracles.jssp_sim(payload, [list(s) for s in seqs])
    if kahn is None:
        assert decoded is None and sim is None and value is None
        assert _flags(report) == (True, False, False)
    else:
        start = np.array(decoded[0])
        assert start.shape == kahn.shape and start.dtype == kahn.dtype
        assert np.array_equal(start, kahn)
        assert type(value) is float
        assert value == oracles.jssp_kahn_makespan(payload, kahn) == sim
        assert report.feasible
    assert list(vars(payload)) == ["ptimes", "machine_order"]


def test_jssp_rows_are_read_as_sequences():
    # A range or a list is read like a tuple. A mapping's values are no
    # sequence, so the shape gate refuses it, whether or not its keys pass
    # the permutation test.
    want = score(JSSP_INST, MachineSchedules(((0, 1), (1, 0))))
    assert score(JSSP_INST, MachineSchedules((range(2), [1, 0]))) == want
    for rows in (
        ({0: 1, 1: 0}, (1, 0)),
        ({0: 0, 1: 1}, (1, 0)),
        ({0: 0, 5: 1}, (1, 0)),
        ({0, 1}, (1, 0)),
    ):
        report, value = score(JSSP_INST, MachineSchedules(rows))
        assert not report.zeta and value is None


def test_jssp_rows_with_mixed_id_types_are_no_permutations():
    # Rows that are not all plain ints pass the id gate before the sort, so a
    # float or string id fails the permutation test rather than the decode.
    for rows in (((0, 1.0), (1, 0)), (("0", 1), (1, 0)), ((1, 0), (0, 1.0))):
        report, value = score(JSSP_INST, MachineSchedules(rows))
        assert report.zeta and not any(_flags(report)) and value is None


def test_jssp_makespan_lower_bounds():
    from cobench.heuristics import solve

    for seed in range(5):
        inst = make_instance(ProblemKind.JSSP, size=6, seed=seed)
        p = inst.payload
        res = solve(inst, "spt")
        mk = res.objective.value
        job_bound = max(sum(row) for row in p.ptimes)
        machine_load = [0] * p.num_machines
        for j in range(p.num_jobs):
            for i, m in enumerate(p.machine_order[j]):
                machine_load[m] += p.ptimes[j][i]
        assert mk >= job_bound - 1e-9
        assert mk >= max(machine_load) - 1e-9


# ---------------------------------------------------------------------------
# Shape gate and totality


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_wrong_solution_type_fails_zeta(kind):
    inst = make_instance(kind, seed=2)
    wrong = JobOrder((0,)) if kind is not ProblemKind.PFSP else Route((0,))
    report = check(inst, wrong)
    assert report.zeta is False
    assert not report.feasible
    assert _flags(report) == tuple(False for _ in CONSTRAINT_NAMES[kind])
    with pytest.raises(ValueError):
        objective(inst, wrong)


_JUNK = [
    Route(()),
    Route((-1, 0, 99)),
    RouteSet(((),) * 3),
    VertexSet.of([10**9]),
    JobOrder((7, 7, 7)),
    MachineSchedules(((),)),
]
# An id field, or a row of one, that is no collection fails the shape gate.
# One-shot iterators fail it too, though the parent scored some of them.
# A numpy array fails it at every length, one element included.
# A collection the scorer cannot index or compare is not scored either.
_BAD_SHAPE = [
    Route(np.array([0, 1, 0])),
    Route(np.array([0])),
    JobOrder(np.array([0])),
    RouteSet((np.array([0, 1, 0]),)),
    MachineSchedules((np.array([0, 1]),)),
    Route({0, 1}),
    Route({0: 1, 1: 0}),
    Route((np.array([0, 1]), np.array([1, 0]))),
    RouteSet(({0, 1},)),
    VertexSet(""),
    JobOrder(np.array([0, 1])),
    Route(None),
    Route(5),
    RouteSet(None),
    RouteSet((0, 1, 0)),
    RouteSet(iter(((0, 1, 0),))),
    VertexSet(None),
    JobOrder(None),
    JobOrder(5),
    MachineSchedules(None),
    MachineSchedules((0, 1)),
    MachineSchedules(((0, 1), 5)),
    # A mapping row fails even where its keys fail the permutation test,
    # which the parent scored zeta True with every flag False.
    MachineSchedules(({0: 0, 5: 1}, (1, 0))),
]


def test_check_never_raises_on_junk():
    for kind in ALL_KINDS:
        inst = make_instance(kind, seed=3)
        for sol in _JUNK + _BAD_SHAPE:
            report = check(inst, sol)  # must not raise
            assert report.feasible in (False,) or report.zeta
        for sol in _BAD_SHAPE:
            report, value = score(inst, sol)
            assert not report.zeta and not any(_flags(report)) and value is None
            own_type = isinstance(sol, SOLUTION_TYPE_BY_KIND[kind])
            with pytest.raises(ValueError, match="must be held in collections" if own_type else "expects"):
                objective(inst, sol)


_KINDS_BY_TYPE = {
    t: [k for k in ALL_KINDS if SOLUTION_TYPE_BY_KIND[k] is t]
    for t in set(SOLUTION_TYPE_BY_KIND.values())
}
# Small instances, so that drawn ids are often in range and JSSP rows often
# permutations: 5 nodes, or 3 jobs on 3 machines.
_SHAPE_INSTANCES = {
    kind: make_instance(kind, size=3 if kind in (ProblemKind.PFSP, ProblemKind.JSSP) else 5)
    for kind in ALL_KINDS
}
_ID = st.one_of(st.integers(-1, 5), st.integers(0, 4).map(np.int64), st.booleans())
_CONTAINERS = (
    "tuple", "list", "set", "frozenset", "dict", "array", "iterator", "str", "None", "int"
)


def _contain(form, items):
    """`items` in the container `form`; a tuple where they cannot be put in
    it (unhashable set members or keys, ragged rows for an array)."""
    try:
        if form == "set":
            return set(items)
        if form == "frozenset":
            return frozenset(items)
        if form == "dict":
            return dict(zip(items, reversed(items)))
        if form == "array":
            return np.array(items)
    except (TypeError, ValueError):
        return tuple(items)
    return {
        "tuple": tuple,
        "list": list,
        "iterator": lambda xs: iter(tuple(xs)),
        "str": lambda xs: str(list(xs)),
        "None": lambda xs: None,
        "int": len,
    }.get(form, tuple)(items)


@st.composite
def _shape_cases(draw):
    """(kind, solution of the kind's type) whose ids sit in any container,
    each row of a nested solution in its own."""
    kind = draw(st.sampled_from(ALL_KINDS))
    solution_type = SOLUTION_TYPE_BY_KIND[kind]
    ids = st.lists(_ID, max_size=6)
    if solution_type in (RouteSet, MachineSchedules):
        row = st.tuples(st.sampled_from(_CONTAINERS), ids).map(lambda c: _contain(*c))
        ids = st.lists(row, max_size=4)
    return kind, solution_type(_contain(draw(st.sampled_from(_CONTAINERS)), draw(ids)))


def _with_examples(cases):
    """A hypothesis @example(case=...) for each case."""

    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test

    return decorate


# The junk and bad shapes above, ids that look frozen and are not, a JSSP
# mapping row whose keys pass the permutation test, and one well-formed
# solution per kind.
_FROZEN_LOOKING = [
    Route(frozenset({0, 1})),
    JobOrder(frozenset({0})),
    VertexSet(frozenset()),
    RouteSet(frozenset({(0, 1, 0)})),
    RouteSet(frozenset({0, 1})),
    MachineSchedules(frozenset({(0, 1)})),
    MachineSchedules(((0, 1), [1, 0])),
    MachineSchedules(({0: 1, 1: 0, 2: 2}, (0, 1, 2), (2, 1, 0))),
    RouteSet(((0, 1, 0), np.array([0, 2, 0]))),
]
_SHAPE_EXAMPLES = [
    (kind, sol)
    for sol in _JUNK + _BAD_SHAPE + _FROZEN_LOOKING
    for kind in _KINDS_BY_TYPE[type(sol)]
] + [(kind, reference_solution(_SHAPE_INSTANCES[kind])[0]) for kind in ALL_KINDS]


@_with_examples(_SHAPE_EXAMPLES)
@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=_shape_cases())
def test_shape_gate_agrees_with_the_gates_it_replaced(case):
    # One verdict changed on purpose: a MachineSchedules with a mapping row
    # whose keys fail the permutation test now fails zeta, where the old
    # gates passed it to the scorer and it got zeta True, every flag False.
    kind, sol = case
    inst = _SHAPE_INSTANCES[kind]
    gate, want_gate = verify._shape_gate(sol), oracles.reference_shape_gate(inst, sol)
    scored, want = score(inst, sol), oracles.reference_score(inst, sol)
    changed = isinstance(sol, MachineSchedules) and want_gate is False and any(
        isinstance(r, dict) for r in sol.sequences
    )
    if changed:
        assert gate is None and scored == (verify._FAILED_REPORTS[kind], None)
        assert want[0].zeta and not any(_flags(want[0])) and want[1] is None
    else:
        assert gate is want_gate
        assert scored == want


def test_shared_reports_equal_fresh_ones():
    margins = (("distance_limit", -0.5),)
    for kind, names in CONSTRAINT_NAMES.items():
        failed = FeasibilityReport(zeta=False, constraints=tuple((n, False) for n in names))
        assert verify._FAILED_REPORTS[kind] == failed
        assert len(verify._REPORTS[kind]) == 2 ** len(names)
        for flags in itertools.product((False, True), repeat=len(names)):
            fresh = FeasibilityReport(zeta=True, constraints=tuple(zip(names, flags)))
            assert verify._report(kind, *flags) == fresh
            # numpy bools find the same report.
            assert verify._report(kind, *map(np.bool_, flags)) == fresh
            with_margins = verify._report(kind, *flags, margins=margins)
            assert with_margins == replace(fresh, margins=margins)
            assert all(type(ok) is bool for _, ok in with_margins.constraints)


def test_ids_whose_equality_is_an_array_keep_their_flags():
    # One-element arrays as ids compare as arrays; a flag takes their truth
    # value, as it did when every report was built fresh with bool().
    tsp = make_instance(ProblemKind.TSP, seed=3)
    report, value = score(tsp, Route((np.array([0]), np.array([0]))))
    assert report.zeta and _flags(report) == (False, True) and value is None
    op = make_instance(ProblemKind.OP, seed=3)
    report, value = score(op, Route((np.array([0]),)))
    assert report.zeta and _flags(report) == (True, False, False) and value is None


def _hypot_length(coords, nodes):
    """route_length as it was: math.hypot per edge, summed in path order."""
    total = 0.0
    if not nodes:
        return total
    x0, y0 = coords[nodes[0]]
    for b in nodes[1:]:
        x1, y1 = coords[b]
        total += math.hypot(x0 - x1, y0 - y1)
        x0, y0 = x1, y1
    return total


def test_route_length_equals_the_hypot_loop_on_instances():
    rnd = random.Random(4)
    coord_sets = [
        make_instance(kind, size=size, seed=seed, distribution=dist).payload.coords
        for kind in (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP)
        for size in (5, 50, 200)
        for seed in range(3)
        for dist in (UNIFORM, GM2, CLUSTERED)
    ]
    coord_sets.append(parse_tsplib(Path(__file__).parent / "data" / "berlin52.tsp").payload.coords)
    for coords in coord_sets:
        for length in (0, 1, 2, len(coords), len(coords) + 1):
            nodes = [rnd.randrange(len(coords)) for _ in range(length)]
            assert repr(verify.route_length(coords, nodes)) == repr(_hypot_length(coords, nodes))


_COORD = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=12))
def test_route_length_equals_the_hypot_loop_on_random_floats(points):
    nodes = list(range(len(points))) + [0]
    assert repr(verify.route_length(points, nodes)) == repr(_hypot_length(points, nodes))


# Ids a model could emit: in range, just out of range, huge, negative,
# floats, strings, None and numpy integers.
_JUNK_ID = st.one_of(
    st.integers(-2, 8),
    st.integers(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.integers(-2, 8).map(np.int64),
)
_JUNK_ROW = st.lists(_JUNK_ID, max_size=7).map(tuple)


def _perm(lo, hi):
    return st.permutations(range(lo, hi)).map(tuple)


def _solutions(inst):
    """Solutions of the kind's type: junk, ragged or empty rows, and
    well-formed candidates that are often feasible."""
    kind, p = inst.kind, inst.payload
    if kind is ProblemKind.TSP:
        tours = _perm(0, p.n).map(lambda t: t + t[:1])
        return st.builds(Route, st.one_of(_JUNK_ROW, tours))
    if kind is ProblemKind.OP:
        paths = st.lists(st.integers(1, p.n - 1), unique=True, max_size=3)
        closed = paths.map(lambda r: (0, *r, 0))
        return st.builds(Route, st.one_of(_JUNK_ROW, closed))
    if kind is ProblemKind.CVRP:
        singles = _perm(1, p.n).map(lambda c: tuple((0, v, 0) for v in c))
        junk = st.lists(_JUNK_ROW, max_size=4).map(tuple)
        return st.builds(RouteSet, st.one_of(junk, singles))
    if kind in (ProblemKind.MIS, ProblemKind.MVC):
        subsets = st.frozensets(st.integers(0, p.num_nodes - 1))
        return st.builds(VertexSet, st.one_of(st.frozensets(_JUNK_ID, max_size=7), subsets))
    if kind is ProblemKind.PFSP:
        return st.builds(JobOrder, st.one_of(_JUNK_ROW, _perm(0, p.num_jobs)))
    rows = st.one_of(_JUNK_ROW, _perm(0, p.num_jobs))
    m = p.num_machines
    return st.builds(
        MachineSchedules,
        st.one_of(
            st.lists(rows, max_size=m + 1).map(tuple),
            st.lists(_perm(0, p.num_jobs), min_size=m, max_size=m).map(tuple),
            # One job order on every machine never deadlocks, at any size.
            _perm(0, p.num_jobs).map(lambda order: (order,) * m),
        ),
    )


# Scheduling kinds also run at the paper's top size, 20 jobs x 20 machines.
_PROPERTY_SIZES = {"pfsp": (3, 20), "jssp": (3, 20), "mis": (6,), "mvc": (6,)}
_PROPERTY_INSTANCES = {
    kind: [
        make_instance(kind, size=size, seed=4)
        for size in _PROPERTY_SIZES.get(kind.value, (5,))
    ]
    for kind in ALL_KINDS
}


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_score_is_total_and_feasible_means_scoreable(kind, data):
    inst = data.draw(st.sampled_from(_PROPERTY_INSTANCES[kind]))
    sol = data.draw(_solutions(inst))
    report, value = score(inst, sol)
    assert check(inst, sol) == report
    try:
        assert objective(inst, sol).value == value
    except ValueError:
        assert value is None
    if report.feasible:
        assert value is not None
        assert value == pytest.approx(oracles.objective_value(inst, sol))


def test_constraint_names_match_report_order():
    for kind in ALL_KINDS:
        inst = make_instance(kind, seed=1)
        sol, _ = reference_solution(inst)
        report = check(inst, sol)
        assert tuple(n for n, _ in report.constraints) == CONSTRAINT_NAMES[kind]


# ---------------------------------------------------------------------------
# Oracle agreement fuzz (small-scale; the acceptance suite runs the big one)


def _random_candidate(rnd, inst):
    kind = inst.kind
    p = inst.payload
    if kind in (ProblemKind.TSP, ProblemKind.OP):
        length = rnd.randint(1, p.n + 2)
        nodes = [rnd.randrange(p.n) for _ in range(length)]
        if rnd.random() < 0.5:
            nodes[0] = 0
        if rnd.random() < 0.5:
            perm = list(range(p.n))
            rnd.shuffle(perm)
            nodes = ([0] if kind is ProblemKind.OP else []) + perm
            if kind is ProblemKind.TSP:
                nodes = perm + [perm[0]]
        return Route(tuple(nodes))
    if kind is ProblemKind.CVRP:
        custs = list(range(1, p.n))
        rnd.shuffle(custs)
        if rnd.random() < 0.3 and custs:
            custs.pop()  # drop one customer
        cuts = sorted(rnd.sample(range(len(custs) + 1), k=min(2, len(custs))))
        parts, prev = [], 0
        for c in cuts + [len(custs)]:
            parts.append(custs[prev:c])
            prev = c
        routes = tuple(tuple([0] + part + [0]) for part in parts if part)
        return RouteSet(routes if routes else ((0, 0),))
    if kind in (ProblemKind.MIS, ProblemKind.MVC):
        size = rnd.randint(0, p.num_nodes)
        return VertexSet.of(rnd.sample(range(p.num_nodes), size))
    if kind is ProblemKind.PFSP:
        jobs = list(range(p.num_jobs))
        rnd.shuffle(jobs)
        if rnd.random() < 0.3:
            jobs[0] = jobs[-1]  # duplicate
        return JobOrder(tuple(jobs))
    seqs = []
    for _ in range(p.num_machines):
        s = list(range(p.num_jobs))
        rnd.shuffle(s)
        seqs.append(tuple(s))
    if rnd.random() < 0.3:
        seqs = [seqs[0]] * p.num_machines  # one order everywhere never deadlocks
    return MachineSchedules(tuple(seqs))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_check_agrees_with_oracle(kind):
    rnd = random.Random(kind.value)
    # Scheduling kinds alternate a small size with the paper's top size.
    sizes = {"pfsp": (6, 20), "jssp": (4, 20)}.get(kind.value, (8,))
    for trial in range(50):
        size = sizes[trial % len(sizes)]
        inst = make_instance(kind, size=size, seed=trial % 7)
        sol = _random_candidate(rnd, inst)
        report, value = score(inst, sol)
        assert report.feasible == oracles.feasible(inst, sol), (inst.id, sol)
        if report.feasible:
            assert value == pytest.approx(oracles.objective_value(inst, sol)), inst.id


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_objective_agrees_with_oracle_on_feasible(kind):
    for seed in range(4):
        inst = make_instance(kind, size={"pfsp": 6, "jssp": 5}.get(kind.value, 10), seed=seed)
        sol, value = reference_solution(inst)
        assert value == pytest.approx(oracles.objective_value(inst, sol))


# ---------------------------------------------------------------------------
# The last-call slot: one scoring per answer, never a stale one


def _count_scorer(monkeypatch, kind):
    """Wrap the kind's scorer in verify._SCORERS; return the list of calls."""
    calls = []
    inner = verify._SCORERS[kind]

    def counting(p, sol):
        calls.append(sol)
        return inner(p, sol)

    monkeypatch.setitem(verify._SCORERS, kind, counting)
    return calls


def _mid_instance(kind):
    return make_instance(kind, size={"pfsp": 6, "jssp": 5}.get(kind.value, 10))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_check_then_objective_scores_a_parsed_answer_once(kind, monkeypatch):
    inst = _mid_instance(kind)
    ref, value = reference_solution(inst)
    calls = _count_scorer(monkeypatch, kind)
    sol = parse(format_solution(kind, ref, value), kind).solution
    assert check(inst, sol).feasible
    assert objective(inst, sol).value == pytest.approx(value)
    assert len(calls) == 1
    # solve()'s order, objective then check, on a fresh parse.
    sol = parse(format_solution(kind, ref, value), kind).solution
    objective(inst, sol)
    check(inst, sol)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_heuristic_solution_is_scored_once_by_solve_then_check(kind, monkeypatch):
    from cobench.heuristics import METHODS_BY_KIND, solve

    inst = _mid_instance(kind)
    for method in METHODS_BY_KIND[kind]:
        calls = _count_scorer(monkeypatch, kind)
        result = solve(inst, method)
        assert check(inst, result.solution).feasible, method
        assert len(calls) == 1, method


def test_list_solutions_mutated_between_calls_are_scored_afresh(monkeypatch):
    inst = make_instance(ProblemKind.TSP, size=6)
    calls = _count_scorer(monkeypatch, ProblemKind.TSP)
    nodes = [0, 1, 2, 3, 4, 5, 0]
    sol = Route(nodes)
    assert check(inst, sol).feasible
    first = objective(inst, sol).value
    nodes[2] = 1  # a repeat: no longer a tour, and another length
    assert not check(inst, sol).feasible
    assert objective(inst, sol).value != first
    assert len(calls) == 4

    # A tuple of list rows is no frozen RouteSet either.
    inst = make_instance(ProblemKind.CVRP, size=8)
    ref, _ = reference_solution(inst)
    rows = [list(r) for r in ref.routes]
    sol = RouteSet(tuple(rows))
    calls = _count_scorer(monkeypatch, ProblemKind.CVRP)
    assert check(inst, sol).feasible
    rows[0].insert(1, rows[-1][1])  # one customer served twice
    assert not check(inst, sol).feasible
    assert len(calls) == 2


def test_equal_but_distinct_instance_or_solution_is_scored_afresh(monkeypatch):
    inst = make_instance(ProblemKind.JSSP, size=4)
    calls = _count_scorer(monkeypatch, ProblemKind.JSSP)
    seqs = tuple(tuple(range(4)) for _ in range(4))
    sol = MachineSchedules(seqs)
    first = score(inst, sol)
    assert score(inst, sol) is first  # the same objects: the stored result
    assert len(calls) == 1
    twin = MachineSchedules(tuple(tuple(row) for row in seqs))
    assert twin == sol and twin is not sol
    assert score(inst, twin) == first
    assert len(calls) == 2
    inst_twin = replace(inst)
    assert inst_twin == inst and inst_twin is not inst
    assert score(inst_twin, twin) == first
    assert len(calls) == 3


def test_threads_interleaving_score_calls_get_the_serial_results():
    cases = []
    for kind in ALL_KINDS:
        inst = _mid_instance(kind)
        ref, _ = reference_solution(inst)
        cases.append((inst, ref))
        cases.append((inst, _random_candidate(random.Random(kind.value), inst)))
    expected = [score(inst, sol) for inst, sol in cases]
    bad = []

    def worker(offset):
        for step in range(60):
            i = (offset + step) % len(cases)
            inst, sol = cases[i]
            report = check(inst, sol)
            got = score(inst, sol)
            if report != expected[i][0] or got != expected[i]:
                bad.append((offset, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
