"""Feasibility checker and objective tests, cross-checked against the
independent implementations in oracles.py."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cobench.problems.types import (
    GraphInstance,
    Instance,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    RoutingInstance,
    SchedulingInstance,
    VertexSet,
)
from cobench.verify import (
    CONSTRAINT_NAMES,
    check,
    jssp_start_times,
    objective,
    pfsp_makespan,
    score,
)

from conftest import ALL_KINDS, make_instance


def _flags(report):
    return report.constraint_flags()


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
    assert jssp_start_times(JSSP_2x2, sol) is None
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
        start = jssp_start_times(payload, sol)
        if sim is None:
            assert start is None
            deadlocks += 1
        else:
            makespan = max(
                start[(j, i)] + ptimes[j][i]
                for j in range(jobs)
                for i in range(machines)
            )
            assert makespan == pytest.approx(sim)
            assert check(inst, sol).feasible
            agreements += 1
    assert agreements > 10 and deadlocks > 5  # both branches exercised


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
    assert report.constraint_flags() == tuple(False for _ in CONSTRAINT_NAMES[kind])
    with pytest.raises(ValueError):
        objective(inst, wrong)


def test_check_never_raises_on_junk():
    junk = [
        Route(()),
        Route((-1, 0, 99)),
        RouteSet(((),) * 3),
        VertexSet.of([10**9]),
        JobOrder((7, 7, 7)),
        MachineSchedules(((),)),
    ]
    for kind in ALL_KINDS:
        inst = make_instance(kind, seed=3)
        for sol in junk:
            report = check(inst, sol)  # must not raise
            assert report.feasible in (False,) or report.zeta


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
        ),
    )


_PROPERTY_SIZES = {"pfsp": 3, "jssp": 3, "mis": 6, "mvc": 6}
_PROPERTY_INSTANCES = {
    kind: make_instance(kind, size=_PROPERTY_SIZES.get(kind.value, 5), seed=4)
    for kind in ALL_KINDS
}


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_score_is_total_and_feasible_means_scoreable(kind, data):
    inst = _PROPERTY_INSTANCES[kind]
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
        from conftest import reference_solution

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
    return MachineSchedules(tuple(seqs))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_check_agrees_with_oracle(kind):
    rnd = random.Random(hash(kind.value) & 0xFFFF)
    sizes = {"pfsp": 6, "jssp": 4}
    for trial in range(50):
        inst = make_instance(kind, size=sizes.get(kind.value, 8), seed=trial % 7)
        sol = _random_candidate(rnd, inst)
        assert check(inst, sol).feasible == oracles.feasible(inst, sol), (
            inst.id,
            sol,
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_objective_agrees_with_oracle_on_feasible(kind):
    from conftest import reference_solution

    for seed in range(4):
        inst = make_instance(kind, size={"pfsp": 6, "jssp": 5}.get(kind.value, 10), seed=seed)
        sol, value = reference_solution(inst)
        assert value == pytest.approx(oracles.objective_value(inst, sol))
