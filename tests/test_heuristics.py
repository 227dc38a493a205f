"""Heuristic baselines and exact-solver tests.

The exact solvers are cross-checked against naive exhaustive scans written
here from scratch; the heuristics are checked for feasibility, worked-example
behavior, and dominance by the exact optimum.
"""

import itertools
import math
import random

import numpy as np
import pytest

import oracles
from cobench.heuristics import (
    DEFAULT_BUDGET,
    AcoConfig,
    BruteForceBudget,
    BudgetExceededError,
    METHODS_BY_KIND,
    SEEDED_METHODS,
    aco_solve,
    brute_force,
    solve,
)
from cobench.heuristics.routing import two_opt
from cobench.problems.generate import distance_matrix
from cobench.problems.types import (
    GraphInstance,
    Instance,
    ProblemKind,
    Route,
    RoutingInstance,
    SchedulingInstance,
    Sense,
)
from cobench.verify import check, objective, pfsp_makespan

from conftest import ALL_KINDS, ROUTING_KINDS, make_instance


def _tsp(coords):
    return Instance(kind=ProblemKind.TSP, payload=RoutingInstance(coords=tuple(coords)), id="t")


def _op(coords, prizes, limit):
    return Instance(
        kind=ProblemKind.OP,
        payload=RoutingInstance(coords=tuple(coords), prizes=tuple(prizes), distance_limit=limit),
        id="o",
    )


def _cvrp(coords, demands, capacity):
    return Instance(
        kind=ProblemKind.CVRP,
        payload=RoutingInstance(coords=tuple(coords), demands=tuple(demands), capacity=capacity),
        id="c",
    )


def _graph(kind, num_nodes, edges):
    return Instance(
        kind=kind, payload=GraphInstance(num_nodes=num_nodes, edges=tuple(sorted(edges))), id="g"
    )


def _pfsp(ptimes):
    return Instance(
        kind=ProblemKind.PFSP,
        payload=SchedulingInstance(ptimes=tuple(tuple(r) for r in ptimes)),
        id="p",
    )


def _jssp(ptimes, orders):
    return Instance(
        kind=ProblemKind.JSSP,
        payload=SchedulingInstance(
            ptimes=tuple(tuple(r) for r in ptimes),
            machine_order=tuple(tuple(o) for o in orders),
        ),
        id="j",
    )


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# TSP heuristics


def test_nn_worked_example():
    inst = _tsp([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
    res = solve(inst, "nn")
    assert res.solution == Route((0, 1, 2, 0))
    assert res.objective.value == pytest.approx(6.0)


def test_two_opt_uncrosses_square():
    d = distance_matrix(SQUARE)
    crossed = [0, 2, 1, 3, 0]
    fixed = two_opt(d, crossed)
    length = sum(d[a, b] for a, b in zip(fixed, fixed[1:]))
    assert length == pytest.approx(4.0)
    assert fixed[0] == fixed[-1]


def test_two_opt_requires_closed_tour():
    d = distance_matrix(SQUARE)
    with pytest.raises(ValueError):
        two_opt(d, [0, 1, 2, 3])


def test_fi_beats_or_matches_nn():
    wins = 0
    for seed in range(15):
        inst = make_instance(ProblemKind.TSP, size=30, seed=seed)
        nn = solve(inst, "nn").objective.value
        fi = solve(inst, "fi").objective.value
        assert fi <= nn + 1e-6
        if fi < nn - 1e-6:
            wins += 1
    assert wins >= 10  # strictly better most of the time, not just equal


def test_tsp_methods_feasible():
    for method in METHODS_BY_KIND[ProblemKind.TSP]:
        for seed in range(3):
            inst = make_instance(ProblemKind.TSP, size=16, seed=seed)
            res = solve(inst, method, seed=0)
            assert check(inst, res.solution).feasible, (method, seed)


# ---------------------------------------------------------------------------
# OP heuristics


def test_op_methods_respect_budget():
    for method in METHODS_BY_KIND[ProblemKind.OP]:
        for seed in range(4):
            inst = make_instance(ProblemKind.OP, size=20, seed=seed)
            res = solve(inst, method, seed=0)
            report = check(inst, res.solution)
            assert report.feasible, (method, seed)
            assert dict(report.margins)["distance_limit"] >= -1e-6


def test_tsili_deterministic_per_seed():
    inst = make_instance(ProblemKind.OP, size=25, seed=3)
    a = solve(inst, "tsili", seed=7).solution
    b = solve(inst, "tsili", seed=7).solution
    assert a == b
    differs = any(
        solve(inst, "tsili", seed=s).solution != a for s in range(8)
    )
    assert differs  # the sampler actually uses its seed


def test_op_greedy_prefers_ratio():
    # Node 1: prize 10 at distance 1. Node 2: prize 1 at distance 1.
    # The route must grab node 1 first.
    inst = _op([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [0, 10, 1], limit=10.0)
    res = solve(inst, "greedy")
    assert res.solution.nodes[1] == 1
    assert res.objective.value == 11.0


# ---------------------------------------------------------------------------
# CVRP heuristics


def test_cvrp_methods_feasible():
    for method in METHODS_BY_KIND[ProblemKind.CVRP]:
        for seed in range(4):
            inst = make_instance(ProblemKind.CVRP, size=15, seed=seed)
            res = solve(inst, method, seed=0)
            report = check(inst, res.solution)
            assert report.feasible, (method, seed)


def test_savings_merges_neighbors():
    # Two tight pairs of customers far from the depot: the merged loops
    # should beat one-loop-per-customer by a wide margin.
    coords = [(0.0, 0.0), (10.0, 0.0), (10.0, 1.0), (-10.0, 0.0), (-10.0, 1.0)]
    inst = _cvrp(coords, [0, 1, 1, 1, 1], capacity=2)
    res = solve(inst, "savings")
    assert check(inst, res.solution).feasible
    assert len(res.solution.routes) == 2
    naive = sum(2 * math.hypot(x, y) for x, y in coords[1:])
    assert res.objective.value < naive - 1.0


def test_sweep_respects_capacity_cuts():
    inst = make_instance(ProblemKind.CVRP, size=20, seed=9)
    res = solve(inst, "sweep")
    p = inst.payload
    for route in res.solution.routes:
        load = sum(p.demands[v] for v in route if v != 0)
        assert load <= p.capacity


# ---------------------------------------------------------------------------
# ACO


def test_aco_unit_square_optimal():
    inst = _tsp(SQUARE)
    cfg = AcoConfig(ants=20, iterations=50, seed=0)
    sol = aco_solve(inst, cfg)
    assert objective(inst, sol).value == pytest.approx(4.0)


def test_aco_deterministic_per_seed():
    inst = make_instance(ProblemKind.TSP, size=14, seed=2)
    cfg = AcoConfig(ants=15, iterations=30, seed=5)
    assert aco_solve(inst, cfg) == aco_solve(inst, cfg)


def test_aco_config_defaults():
    assert AcoConfig.default_for(ProblemKind.TSP) == AcoConfig(ants=100, iterations=500)
    assert AcoConfig.default_for(ProblemKind.OP) == AcoConfig(ants=50, iterations=100)
    with pytest.raises(ValueError):
        AcoConfig(ants=0)
    with pytest.raises(ValueError):
        AcoConfig(evaporation=1.5)


@pytest.mark.parametrize("kind", ROUTING_KINDS)
@pytest.mark.parametrize(
    "coord_range,beta,underflow",
    [
        ((10**5, 10**6), 200.0, True),  # every eta**beta underflows to 0.0
        ((1, 3), 1000.0, False),  # coincident and unit-distance nodes overflow
    ],
)
def test_aco_survives_degenerate_desirability(kind, coord_range, beta, underflow):
    inst = make_instance(kind, size=15, seed=1, coord_range=coord_range)
    p = inst.payload
    top = np.asarray(p.prizes, dtype=float) if kind is ProblemKind.OP else 1.0
    off_diagonal = ~np.eye(p.n, dtype=bool)
    with np.errstate(over="ignore"):
        eta_b = (top / np.maximum(distance_matrix(p.coords), 1e-12))[off_diagonal] ** beta
        sol = aco_solve(inst, AcoConfig(ants=6, iterations=5, beta=beta, seed=0))
    if underflow:
        assert (eta_b == 0.0).all()
    else:
        assert np.isinf(eta_b).any()
    assert check(inst, sol).feasible


def test_aco_rejects_non_routing():
    inst = make_instance(ProblemKind.MIS, size=10, seed=0)
    with pytest.raises(ValueError):
        aco_solve(inst, AcoConfig(ants=5, iterations=5, seed=0))


# ---------------------------------------------------------------------------
# Graph heuristics


def test_mvc_single_edge():
    inst = _graph(ProblemKind.MVC, 2, [(0, 1)])
    assert len(solve(inst, "approx").solution.vertices) == 2  # matching takes both
    assert len(solve(inst, "greedy").solution.vertices) == 1


def test_mis_path_graph():
    inst = _graph(ProblemKind.MIS, 3, [(0, 1), (1, 2)])
    assert solve(inst, "greedy").solution.vertices == frozenset({0, 2})
    assert solve(inst, "degree").solution.vertices == frozenset({0, 2})


def test_graph_methods_feasible():
    for kind in (ProblemKind.MIS, ProblemKind.MVC):
        for method in METHODS_BY_KIND[kind]:
            for seed in range(4):
                inst = make_instance(kind, size=30, seed=seed)
                res = solve(inst, method)
                assert check(inst, res.solution).feasible, (kind, method, seed)


def test_mvc_degree_removal_complements_mis_degree_add():
    for seed in range(5):
        mis_inst = make_instance(ProblemKind.MIS, size=25, seed=seed)
        mvc_inst = Instance(kind=ProblemKind.MVC, payload=mis_inst.payload, id="m")
        independent = solve(mis_inst, "degree").solution.vertices
        cover = solve(mvc_inst, "degree").solution.vertices
        assert cover == frozenset(range(mis_inst.payload.num_nodes)) - independent


# ---------------------------------------------------------------------------
# Scheduling heuristics


def test_neh_worked_example():
    inst = _pfsp([[1, 2], [3, 1]])
    res = solve(inst, "neh")
    assert res.solution.jobs == (0, 1)
    assert res.objective.value == 5.0


def test_palmer_slope_ordering():
    # Two machines: slope = p2 - p1. Ascending jobs go first.
    inst = _pfsp([[1, 9], [9, 1], [5, 5]])
    res = solve(inst, "palmer")
    assert res.solution.jobs == (0, 2, 1)


def test_neh_never_worse_than_palmer():
    for seed in range(10):
        inst = make_instance(ProblemKind.PFSP, size=8, seed=seed)
        neh = solve(inst, "neh").objective.value
        palmer = solve(inst, "palmer").objective.value
        assert neh <= palmer + 1e-9


def test_atc_equals_spt_without_due_dates():
    for seed in range(5):
        inst = make_instance(ProblemKind.JSSP, size=6, seed=seed)
        assert solve(inst, "atc").solution == solve(inst, "spt").solution


def test_atc_diverges_with_due_dates():
    # A tight due date on the long job should pull it forward.
    inst = _jssp([[9, 9], [2, 2], [3, 3]], [(0, 1), (0, 1), (0, 1)])
    spt = solve(inst, "spt").solution
    atc = solve(inst, "atc", due_dates=[5.0, 100.0, 100.0]).solution
    assert spt != atc
    assert atc.sequences[0][0] == 0  # urgent job dispatched first


def test_scheduling_methods_feasible():
    for kind in (ProblemKind.PFSP, ProblemKind.JSSP):
        for method in METHODS_BY_KIND[kind]:
            for seed in range(4):
                inst = make_instance(kind, size=8, seed=seed)
                res = solve(inst, method)
                assert check(inst, res.solution).feasible, (kind, method, seed)


def test_dispatch_rejects_unknown_rule():
    from cobench.heuristics import jssp_dispatch

    inst = make_instance(ProblemKind.JSSP, size=5, seed=0)
    with pytest.raises(ValueError):
        jssp_dispatch(inst, rule="lpt")


# ---------------------------------------------------------------------------
# solve() dispatcher


def test_solve_unknown_method_lists_known():
    inst = make_instance(ProblemKind.TSP, size=10, seed=0)
    with pytest.raises(ValueError, match="nn, fi, aco"):
        solve(inst, "lkh")


def test_solve_result_fields():
    inst = make_instance(ProblemKind.TSP, size=10, seed=0)
    res = solve(inst, "nn")
    assert res.method == "nn"
    assert res.objective.sense is Sense.MIN
    assert res.objective.value == objective(inst, res.solution).value


def test_seeded_methods_registry():
    assert SEEDED_METHODS == {"aco", "tsili"}
    for kind, methods in METHODS_BY_KIND.items():
        inst = make_instance(
            kind, size={"pfsp": 6, "jssp": 5}.get(kind.value, 10), seed=1
        )
        for method in methods:
            res = solve(inst, method, seed=3)  # seed silently ignored if unused
            assert check(inst, res.solution).feasible


# ---------------------------------------------------------------------------
# Exact solvers vs naive exhaustive scans


def test_tsp_exact_matches_permutation_scan():
    rnd = random.Random(0)
    for trial in range(4):
        n = rnd.randint(4, 8)
        coords = [(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(n)]
        inst = _tsp(coords)
        _, val = brute_force(inst)
        best = min(
            oracles.tour_length(coords, [0] + list(perm) + [0])
            for perm in itertools.permutations(range(1, n))
        )
        assert val.value == pytest.approx(best)


def test_op_exact_matches_subset_scan():
    rnd = random.Random(1)
    for trial in range(3):
        n = 6
        coords = [(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(n)]
        prizes = [0] + [rnd.randint(1, 10) for _ in range(n - 1)]
        limit = rnd.uniform(100, 250)
        inst = _op(coords, prizes, limit)
        sol, val = brute_force(inst)
        best_prize, best_len = 0.0, 0.0
        for r in range(n):
            for subset in itertools.permutations(range(1, n), r):
                path = [0] + list(subset)
                length = oracles.tour_length(coords, path)
                if length > limit + 1e-9:
                    continue
                prize = float(sum(prizes[v] for v in path))
                if prize > best_prize + 1e-9 or (
                    abs(prize - best_prize) <= 1e-9 and length < best_len - 1e-9
                ):
                    best_prize, best_len = prize, length
        assert val.value == pytest.approx(best_prize)
        report = check(inst, sol)
        assert report.feasible


def _cvrp_partition_scan(coords, demands, capacity):
    """Optimal CVRP cost by scanning all set partitions of the customers."""
    n = len(coords)
    customers = list(range(1, n))

    def best_route_cost(group):
        return min(
            oracles.tour_length(coords, [0] + list(p) + [0])
            for p in itertools.permutations(group)
        )

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    best = math.inf
    for part in partitions(customers):
        if any(sum(demands[v] for v in g) > capacity for g in part):
            continue
        best = min(best, sum(best_route_cost(g) for g in part))
    return best


def test_cvrp_exact_matches_partition_scan():
    rnd = random.Random(2)
    for trial in range(3):
        n = 5  # 4 customers
        coords = [(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(n)]
        demands = [0] + [rnd.randint(1, 10) for _ in range(n - 1)]
        capacity = max(12, max(demands))
        inst = _cvrp(coords, demands, capacity)
        sol, val = brute_force(inst)
        assert check(inst, sol).feasible
        assert val.value == pytest.approx(_cvrp_partition_scan(coords, demands, capacity))


def test_mis_exact_matches_powerset_scan():
    rnd = random.Random(3)
    for trial in range(3):
        inst = make_instance(ProblemKind.MIS, size=12, seed=trial)
        p = inst.payload
        _, val = brute_force(inst)
        best = 0
        for bits in range(1 << p.num_nodes):
            chosen = {v for v in range(p.num_nodes) if bits & (1 << v)}
            if all(not (u in chosen and v in chosen) for u, v in p.edges):
                best = max(best, len(chosen))
        assert val.value == best


def test_mvc_exact_is_complement_of_mis():
    for seed in range(4):
        mis_inst = make_instance(ProblemKind.MIS, size=14, seed=seed)
        mvc_inst = Instance(kind=ProblemKind.MVC, payload=mis_inst.payload, id="v")
        mis_sol, mis_val = brute_force(mis_inst)
        mvc_sol, mvc_val = brute_force(mvc_inst)
        n = mis_inst.payload.num_nodes
        assert mvc_val.value == n - mis_val.value
        assert check(mvc_inst, mvc_sol).feasible


def test_pfsp_exact_matches_permutation_scan():
    rnd = random.Random(4)
    for trial in range(3):
        jobs, machines = 6, 3
        ptimes = [[rnd.randint(1, 40) for _ in range(machines)] for _ in range(jobs)]
        inst = _pfsp(ptimes)
        _, val = brute_force(inst)
        best = min(
            pfsp_makespan(ptimes, perm) for perm in itertools.permutations(range(jobs))
        )
        assert val.value == pytest.approx(best)


def test_jssp_exact_matches_sequence_scan():
    rnd = random.Random(5)
    for trial in range(3):
        jobs, machines = 3, 3
        ptimes = [[rnd.randint(1, 30) for _ in range(machines)] for _ in range(jobs)]
        orders = []
        for _ in range(jobs):
            o = list(range(machines))
            rnd.shuffle(o)
            orders.append(tuple(o))
        inst = _jssp(ptimes, orders)
        sol, val = brute_force(inst)
        assert check(inst, sol).feasible
        best = math.inf
        for seqs in itertools.product(itertools.permutations(range(jobs)), repeat=machines):
            mk = oracles.jssp_sim(inst.payload, [list(s) for s in seqs])
            if mk is not None:
                best = min(best, mk)
        assert val.value == pytest.approx(best)


# ---------------------------------------------------------------------------
# Exact-solver dominance and budget refusals


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_brute_force_dominates_heuristics(kind):
    sizes = {
        ProblemKind.TSP: 9,
        ProblemKind.OP: 8,
        ProblemKind.CVRP: 7,
        ProblemKind.MIS: 16,
        ProblemKind.MVC: 16,
        ProblemKind.PFSP: 6,
        ProblemKind.JSSP: 3,
    }
    for seed in range(3):
        inst = make_instance(kind, size=sizes[kind], seed=seed)
        _, opt = brute_force(inst)
        for method in METHODS_BY_KIND[kind]:
            heur = solve(inst, method, seed=0).objective
            if opt.sense is Sense.MIN:
                assert opt.value <= heur.value + 1e-9, (kind, method, seed)
            else:
                assert opt.value >= heur.value - 1e-9, (kind, method, seed)


def test_budget_refusals():
    cases = [
        (ProblemKind.TSP, 12, DEFAULT_BUDGET.tsp_max_nodes),
        (ProblemKind.OP, 11, DEFAULT_BUDGET.op_max_nodes),
        (ProblemKind.CVRP, 10, DEFAULT_BUDGET.cvrp_max_customers),
        (ProblemKind.MIS, 25, DEFAULT_BUDGET.graph_max_nodes),
        (ProblemKind.MVC, 25, DEFAULT_BUDGET.graph_max_nodes),
        (ProblemKind.PFSP, 9, DEFAULT_BUDGET.pfsp_max_jobs),
        (ProblemKind.JSSP, 4, DEFAULT_BUDGET.jssp_max_jobs),
    ]
    for kind, size, limit in cases:
        inst = make_instance(kind, size=size, seed=0)
        with pytest.raises(BudgetExceededError) as exc:
            brute_force(inst)
        assert exc.value.kind is kind
        assert exc.value.limit == limit
        assert "exceeds the exact-search budget" in str(exc.value)


def test_budget_is_configurable():
    inst = make_instance(ProblemKind.TSP, size=12, seed=0)
    relaxed = BruteForceBudget(tsp_max_nodes=12)
    sol, val = brute_force(inst, relaxed)
    assert check(inst, sol).feasible
    heur = solve(inst, "fi").objective.value
    assert val.value <= heur + 1e-9
