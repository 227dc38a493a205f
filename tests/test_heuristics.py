"""Heuristic baselines and exact-solver tests.

The exact solvers are cross-checked against naive exhaustive scans written
here from scratch; the heuristics are checked for feasibility, worked-example
behavior, and dominance by the exact optimum.
"""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cobench.heuristics import (
    MAX_EXACT_SIZE,
    AcoConfig,
    BudgetExceededError,
    METHODS_BY_KIND,
    SEEDED_METHODS,
    aco_solve,
    brute_force,
    jssp_dispatch,
    mis_greedy_min_degree,
    mvc_greedy_max_degree,
    op_greedy,
    op_greedy_insertion,
    op_tsili,
    pfsp_neh,
    solve,
    tsp_nearest_neighbor,
)
from cobench.heuristics.aco import CANDIDATES, candidate_chooser, candidate_offsets
from cobench.heuristics.rollout import rollout, roulette
from cobench.heuristics.routing import two_opt
from cobench.problems.generate import distance_matrix, nearest_nodes
from cobench.problems.types import (
    GraphFamily,
    GraphInstance,
    Instance,
    MachineSchedules,
    ProblemKind,
    Route,
    RoutingInstance,
    SchedulingInstance,
    Sense,
)
from cobench.verify import check, jssp_decode, objective, pfsp_makespan

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


@pytest.mark.parametrize("n", [2, 6])
def test_fi_on_coincident_nodes_visits_each_once(n):
    # every node sits on the depot, so every distance from it is 0.0
    inst = _tsp([(3.0, 4.0)] * n)
    sol = solve(inst, "fi").solution
    assert sorted(sol.nodes[:-1]) == list(range(n))
    assert check(inst, sol).feasible


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


def test_seeded_solvers_default_to_seed_zero():
    inst = make_instance(ProblemKind.OP, size=40, seed=3)
    unseeded = AcoConfig(ants=5, iterations=3)
    seeded = AcoConfig(ants=5, iterations=3, seed=0)
    assert aco_solve(inst, unseeded) == aco_solve(inst, unseeded) == aco_solve(inst, seeded)
    assert op_tsili(inst, samples=32) == op_tsili(inst, samples=32)
    assert op_tsili(inst, samples=32) == op_tsili(inst, samples=32, seed=0)


def _degenerate(kind, case):
    inst = make_instance(kind, size=15, seed=1)
    p = inst.payload
    if case == "overflow":  # a prize near 1e300 over a finite distance
        return replace(inst, payload=replace(p, prizes=(0, 10**300) + p.prizes[2:]))
    # Coordinates near 1e200 put every distance at inf. OP's length limit
    # goes to inf too, so that its ants can still move.
    coords = tuple((x * 1e200, y * 1e200) for x, y in p.coords)
    limit = math.inf if kind is ProblemKind.OP else None
    return replace(inst, payload=replace(p, coords=coords, distance_limit=limit))


# With beta = 2, TSP and CVRP desirability is at most (1 / 1e-12)**2 = 1e24,
# so only an OP prize can overflow it.
@pytest.mark.parametrize(
    "case,kind",
    [("zero", kind) for kind in ROUTING_KINDS] + [("overflow", ProblemKind.OP)],
)
def test_aco_survives_degenerate_desirability(case, kind):
    inst = _degenerate(kind, case)
    p = inst.payload
    top = np.asarray(p.prizes, dtype=float) if kind is ProblemKind.OP else 1.0
    off_diagonal = ~np.eye(p.n, dtype=bool)
    with np.errstate(over="ignore"):
        eta = (top / np.maximum(distance_matrix(p.coords), 1e-12))[off_diagonal]
        eta_b = eta * eta
        sol = aco_solve(inst, AcoConfig(ants=6, iterations=5))
    if case == "zero":
        assert (eta_b == 0.0).all()
    else:
        assert np.isinf(eta_b).any()
    assert check(inst, sol).feasible


@pytest.mark.parametrize(
    "big,route",
    [
        ((10**300,), (0, 1, 4, 7, 14, 2, 9)),
        ((10**200, 10**300), (0, 2, 1, 13, 6)),
    ],
)
def test_aco_op_overflowed_prizes_keep_their_routes(big, route):
    # Prizes this large overflow eta**2 to +inf; the choice info maps each
    # +inf weight to the largest float, and the routes are pinned.
    inst = make_instance(ProblemKind.OP, size=15, seed=1)
    p = inst.payload
    prizes = (0,) + big + p.prizes[1 + len(big):]
    inst = replace(inst, payload=replace(p, prizes=prizes))
    with np.errstate(over="ignore"):
        eta = np.asarray(prizes, dtype=float) / np.maximum(distance_matrix(p.coords), 1e-12)
        assert np.isinf(eta * eta).any()
        sol = aco_solve(inst, AcoConfig(ants=10, iterations=20, seed=3))
    assert sol.nodes == route
    assert check(inst, sol).feasible


def test_candidate_lists_nearest_ties_to_lower_id():
    # node 0 sits at distance 1 from nodes 1, 2 and 3, and nodes 2 and 4
    # coincide; ACO keeps each node's nearest nodes in id order
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (5.0, 5.0)]
    near = np.sort(nearest_nodes(coords, 2)[0], axis=1)
    assert near.shape == (6, 2)
    assert near[0].tolist() == [1, 2]
    assert near[2].tolist() == [0, 4]  # 4 at distance 0, then 0 before 1 at sqrt(2)
    assert near[4].tolist() == [0, 2]
    assert near[3].tolist() == [0, 2]
    # up to size + 1 nodes a list holds every other node, in id order
    whole = np.sort(nearest_nodes(coords[:3], 2)[0], axis=1)
    assert whole.tolist() == [[1, 2], [0, 2], [0, 1]]


def test_candidate_offsets_index_each_ants_mask_row():
    near = oracles.candidate_lists(distance_matrix(np.random.default_rng(0).random((7, 2))), 3)
    offsets = candidate_offsets(near, ants=4)
    assert offsets.shape == (4 * 7, 3)
    mask = np.arange(4 * 7).reshape(4, 7)
    for a in range(4):
        for i in range(7):
            assert offsets[a * 7 + i].tolist() == mask[a, near[i]].tolist()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    capacity=st.one_of(st.none(), st.integers(10, 60)),
    seed=st.integers(0, 2**16),
)
def test_aco_cvrp_walks_end_within_the_kernel_limit(n, capacity, seed):
    # capacity None: every demand equals the capacity, so each route serves
    # one customer and a walk takes the most steps, 2(n - 1)
    gen = dict(demand_range=(5, 5), capacity=5) if capacity is None else dict(capacity=capacity)
    inst = make_instance(ProblemKind.CVRP, size=n, seed=seed, **gen)
    walks = []

    def recording(*args, **kwargs):
        walks.append(rollout(*args, **kwargs))
        return walks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cobench.heuristics.aco.rollout", recording)
        aco_solve(inst, AcoConfig(ants=5, iterations=2, seed=seed))
    limit = 2 * n + 2
    assert len(walks) == 2  # one per iteration
    for w in walks:
        assert w.paths.shape == (5, limit + 1)
        for path in w.paths:
            taken = path[path >= 0]
            steps = len(taken) - 1
            assert (path[steps + 1:] == -1).all()  # an ant stays only once it is done
            assert taken[0] == 0 and taken[-1] == 0
            assert sorted(taken[taken > 0].tolist()) == list(range(1, n))
            assert steps <= 2 * (n - 1) < limit


def _chooser_case(n, ants, seed):
    """Random coordinates, choice info with a zero diagonal, and a start node
    per ant, for one step of `candidate_chooser`."""
    rng = np.random.default_rng(seed)
    near = oracles.candidate_lists(distance_matrix(rng.random((n, 2))), CANDIDATES)
    ci = rng.random((n, n))
    np.fill_diagonal(ci, 0.0)
    return rng, near, ci, rng.integers(0, n, ants)


def _step(ci, near, cur, mask, seed):
    """One per-step draw of `candidate_chooser` for ants at nodes `cur`."""
    offsets = candidate_offsets(near, len(cur))
    return candidate_chooser(ci, near, offsets, np.random.default_rng(seed), None)(cur, mask)


def _draw_pair(ci, near, cur, unvisited, seed):
    """One step of the chooser and of the whole-row roulette from one seed."""
    got = _step(ci, near, cur, unvisited, seed)
    want = roulette(ci[cur] * unvisited, unvisited, np.random.default_rng(seed))
    return got, want


@pytest.mark.parametrize("n", [2, 8, CANDIDATES + 1])
def test_candidate_chooser_whole_row_is_roulette(n):
    rng, near, ci, cur = _chooser_case(n, ants=64, seed=n)
    assert near.shape == (n, n - 1)
    unvisited = rng.random((64, n)) < 0.5
    unvisited[np.arange(64), cur] = False
    unvisited[np.arange(64), (cur + 1) % n] = True  # a move always exists
    got, want = _draw_pair(ci, near, cur, unvisited, seed=n)
    assert got.tolist() == want.tolist()


def test_candidate_chooser_draws_roulette_among_unvisited_candidates():
    # every unvisited node lies on the ant's list, so the list draw must pick
    # exactly what the whole-row roulette picks from the same uniforms
    n, ants = 3 * CANDIDATES, 64
    rng, near, ci, cur = _chooser_case(n, ants, seed=1)
    unvisited = np.zeros((ants, n), dtype=bool)
    for a in range(ants):
        unvisited[a, near[cur[a]][rng.random(CANDIDATES) < 0.3]] = True
        unvisited[a, near[cur[a], a % CANDIDATES]] = True
    got, want = _draw_pair(ci, near, cur, unvisited, seed=2)
    assert got.tolist() == want.tolist()


def test_candidate_chooser_used_up_list_takes_best_unvisited():
    n, ants = 3 * CANDIDATES, 32
    rng, near, ci, _ = _chooser_case(n, ants, seed=3)
    cur = rng.permutation(n)[:ants]  # one ant per node, so each edits its own row of ci
    unvisited = np.zeros((ants, n), dtype=bool)
    expected = {}
    for a in range(ants):
        off_list = np.setdiff1d(np.arange(n), np.append(near[cur[a]], cur[a]))
        if a % 2:  # used up: only nodes off the list are left
            left = rng.choice(off_list, size=4, replace=False)
            unvisited[a, left] = True
            ci[cur[a], left[:2]] = ci[cur[a], left].max() + 1.0  # a tie, won by the lower id
            expected[a] = int(min(left[:2]))
        else:  # one candidate left beside off-list nodes of far larger choice info
            unvisited[a, near[cur[a], 0]] = True
            unvisited[a, off_list[:3]] = True
            ci[cur[a], off_list[:3]] = 1e6
            expected[a] = int(near[cur[a], 0])
    got = _step(ci, near, cur, unvisited, seed=4)
    assert got.tolist() == [expected[a] for a in range(ants)]


def test_candidate_chooser_zero_weights_draw_uniformly_among_candidates():
    n, ants = 3 * CANDIDATES, 64
    rng, near, ci, cur = _chooser_case(n, ants, seed=5)
    ci[:] = 0.0
    unvisited = rng.random((ants, n)) < 0.5
    unvisited[np.arange(ants), cur] = False
    unvisited[np.arange(ants), near[cur, 0]] = True
    u = np.random.default_rng(6).random(ants)  # the ants' one uniform each
    got = _step(ci, near, cur, unvisited, seed=6)
    for a in range(ants):
        options = [int(v) for v in near[cur[a]] if unvisited[a, v]]  # ascending ids
        assert got[a] == options[math.ceil(u[a] * len(options)) - 1]


def test_aco_tsp_quality_against_nearest_neighbor():
    # 20 ants x 50 iterations at 50 nodes: list-restricted ants stay within
    # 1.2x of the nearest-neighbour tour on average
    aco, nn = [], []
    for s in range(10):
        inst = make_instance(ProblemKind.TSP, size=50, seed=s)
        aco.append(objective(inst, aco_solve(inst, AcoConfig(ants=20, iterations=50, seed=s))).value)
        nn.append(objective(inst, tsp_nearest_neighbor(inst)).value)
    assert np.mean(aco) <= 1.2 * np.mean(nn)


def test_aco_cvrp_quality_against_savings():
    # 20 ants x 30 iterations at 50 nodes: ants that choose from candidate
    # lists stay within 1.35x of Clarke-Wright savings on average (1.29x;
    # whole-row ants read 1.44x)
    aco, savings = [], []
    for s in range(10):
        inst = make_instance(ProblemKind.CVRP, size=50, seed=s)
        aco.append(objective(inst, aco_solve(inst, AcoConfig(ants=20, iterations=30, seed=s))).value)
        savings.append(objective(inst, solve(inst, "savings").solution).value)
    assert np.mean(aco) <= 1.35 * np.mean(savings)


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


@st.composite
def graphs(draw):
    """A graph of 1-24 nodes shaped to tie degrees: edgeless, a star, complete,
    a cycle, equal cliques or random edges, with its ids shuffled."""
    n = draw(st.integers(1, 24))
    pairs = list(itertools.combinations(range(n), 2))
    shape = draw(st.sampled_from(["edgeless", "star", "complete", "cycle", "cliques", "random"]))
    if shape == "edgeless" or not pairs:
        edges = []
    elif shape == "star":
        edges = [(0, v) for v in range(1, n)]
    elif shape == "complete":
        edges = pairs
    elif shape == "cycle":
        edges = {(min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n)}
    elif shape == "cliques":
        k = draw(st.integers(1, 4))
        edges = [(u, v) for u, v in pairs if u % k == v % k]
    else:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    ids = draw(st.permutations(range(n)))
    return GraphInstance(n, tuple(sorted((min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in edges)))


@settings(max_examples=300, deadline=None)
@given(graph=graphs())
def test_greedy_graph_heuristics_equal_their_rescan_forms(graph):
    mis = Instance(kind=ProblemKind.MIS, payload=graph, id="g")
    mvc = Instance(kind=ProblemKind.MVC, payload=graph, id="g")
    assert mis_greedy_min_degree(mis).vertices == frozenset(oracles.mis_greedy(graph))
    assert mvc_greedy_max_degree(mvc).vertices == frozenset(oracles.mvc_greedy(graph))


@pytest.mark.parametrize("kind", [ProblemKind.MIS, ProblemKind.MVC], ids=["mis", "mvc"])
@pytest.mark.parametrize(
    "family, size, gen",
    [
        (GraphFamily.ER, 500, dict(er_prob_range=(0.05, 0.05))),
        (GraphFamily.ER, 1000, dict(er_prob_range=(0.01, 0.01))),
        (GraphFamily.BA, 1000, dict(ba_attach_range=(3, 3))),
    ],
    ids=["er-500", "er-1000", "ba-1000"],
)
def test_greedy_graph_heuristics_beyond_the_paper_sizes(kind, family, size, gen):
    inst = make_instance(kind, size=size, seed=size, graph_family=family, **gen)
    rescan = oracles.mis_greedy if kind is ProblemKind.MIS else oracles.mvc_greedy
    res = solve(inst, "greedy")
    assert res.solution.vertices == frozenset(rescan(inst.payload))
    assert check(inst, res.solution).feasible


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


def _non_delay(inst, sol) -> bool:
    """No machine idles while an operation it runs later is ready: at each
    position k of a machine's sequence, no operation at k or later could
    start before the one at k does."""
    p = inst.payload
    start = jssp_decode(p, sol.sequences)[0]
    for m, seq in enumerate(sol.sequences):
        ops = [(j, p.machine_order[j].index(m)) for j in seq]
        ready = [start[j][i - 1] + p.ptimes[j][i - 1] if i else 0.0 for j, i in ops]
        free = 0.0
        for k, (j, i) in enumerate(ops):
            if any(max(free, r) < start[j][i] for r in ready[k:]):
                return False
            free = start[j][i] + p.ptimes[j][i]
    return True


def test_non_delay_check_rejects_an_idle_machine():
    # Machine 0 waits until t=5 for job 0 while job 1 is ready there at t=0.
    inst = _jssp([[5, 1], [1, 1]], [(1, 0), (0, 1)])
    assert not _non_delay(inst, MachineSchedules(((0, 1), (0, 1))))
    assert _non_delay(inst, MachineSchedules(((1, 0), (0, 1))))


@pytest.mark.parametrize("rule", ["spt", "fifo", "atc"])
def test_dispatch_schedules_are_non_delay(rule):
    rng = random.Random(14)
    for seed in range(20):
        jobs, machines, tmax = rng.randint(2, 8), rng.randint(2, 8), rng.choice((3, 100))
        ptimes = [[rng.randint(1, tmax) for _ in range(machines)] for _ in range(jobs)]
        orders = [rng.sample(range(machines), machines) for _ in range(jobs)]
        for inst in (_jssp(ptimes, orders), make_instance(ProblemKind.JSSP, size=10, seed=seed)):
            assert _non_delay(inst, jssp_dispatch(inst, rule)), (rule, seed)


def test_scheduling_methods_feasible():
    for kind in (ProblemKind.PFSP, ProblemKind.JSSP):
        for method in METHODS_BY_KIND[kind]:
            for seed in range(4):
                inst = make_instance(kind, size=8, seed=seed)
                res = solve(inst, method)
                assert check(inst, res.solution).feasible, (kind, method, seed)


def test_dispatch_rejects_unknown_rule():
    inst = make_instance(ProblemKind.JSSP, size=5, seed=0)
    with pytest.raises(ValueError):
        jssp_dispatch(inst, rule="lpt")


@st.composite
def jssp_instances(draw):
    """J x M (1-7 each, drawn independently) with times 1-3, so that many
    operations can start at once, and random machine orders."""
    jobs, machines = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    ptimes = [[draw(st.integers(1, 3)) for _ in range(machines)] for _ in range(jobs)]
    orders = [draw(st.permutations(range(machines))) for _ in range(jobs)]
    return _jssp(ptimes, orders)


@settings(max_examples=300, deadline=None)
@given(inst=jssp_instances())
@example(inst=_jssp([[2]], [[0]]))
def test_dispatch_equals_its_rescan_form(inst):
    for rule in ("spt", "fifo", "atc"):
        got = [list(s) for s in jssp_dispatch(inst, rule).sequences]
        assert got == oracles.dispatch(inst.payload, rule), rule


@settings(max_examples=300, deadline=None)
@given(
    ptimes=st.integers(1, 8).flatmap(
        lambda m: st.lists(st.lists(st.integers(1, 3), min_size=m, max_size=m), min_size=1, max_size=8)
    )
)
def test_neh_equals_its_full_decode_form(ptimes):
    assert list(pfsp_neh(_pfsp(ptimes)).jobs) == oracles.neh(ptimes)


@pytest.mark.parametrize("jobs", [50, 100])
def test_dispatch_beyond_the_paper_sizes(jobs):
    # Taillard's 50x20 and 100x20 shapes: times 1-99, random machine orders
    rng = random.Random(jobs)
    ptimes = [[rng.randint(1, 99) for _ in range(20)] for _ in range(jobs)]
    inst = _jssp(ptimes, [rng.sample(range(20), 20) for _ in range(jobs)])
    for rule in ("spt", "fifo"):
        sol = jssp_dispatch(inst, rule)
        assert [list(s) for s in sol.sequences] == oracles.dispatch(inst.payload, rule), rule
        assert check(inst, sol).feasible, rule


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


def test_solve_runs_seeded_methods_with_seed_zero_by_default():
    small = {"aco": dict(ants=4, iterations=3), "tsili": dict(samples=64)}
    for kind, methods in METHODS_BY_KIND.items():
        for method, seed in itertools.product(SEEDED_METHODS.intersection(methods), (1, 2)):
            inst = make_instance(kind, size=40, seed=seed)
            unseeded = solve(inst, method, **small[method])
            assert unseeded == solve(inst, method, seed=0, **small[method]), (inst.id, method)


def test_kind_guard_names_expected_and_given_kind():
    tsp, mis, pfsp = (
        make_instance(kind, size=5) for kind in (ProblemKind.TSP, ProblemKind.MIS, ProblemKind.PFSP)
    )
    for solver, inst, message in (
        (tsp_nearest_neighbor, mis, "expected a tsp instance, got mis"),
        (mis_greedy_min_degree, pfsp, "expected a mis instance, got pfsp"),
        (pfsp_neh, tsp, "expected a pfsp instance, got tsp"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solver(inst)


def test_seeded_methods_registry():
    assert SEEDED_METHODS == {"aco", "tsili"}
    for kind, methods in METHODS_BY_KIND.items():
        inst = make_instance(
            kind, size={"pfsp": 6, "jssp": 5}.get(kind.value, 10), seed=1
        )
        for method in methods:
            res = solve(inst, method, seed=3)  # seed silently ignored if unused
            assert check(inst, res.solution).feasible


def _op_cases():
    rnd = random.Random(4)
    insts = [make_instance(ProblemKind.OP, size=n, seed=n) for n in (2, 10, 40)]
    for n in (3, 8, 15, 25):  # tie-rich: a 5x5 integer grid, prizes 0-2
        coords = [(rnd.randint(0, 4), rnd.randint(0, 4)) for _ in range(n)]
        prizes = [0] + [rnd.randint(0, 2) for _ in range(n - 1)]
        insts.append(_op(coords, prizes, rnd.choice([2, 5, 10, 20])))
    return insts


def test_op_greedy_insertion_matches_pair_scan():
    for inst in _op_cases():
        p = inst.payload
        d = distance_matrix(p.coords).tolist()
        expected = oracles.op_greedy_insertion(d, p.prizes, p.distance_limit)
        assert op_greedy_insertion(inst).nodes == tuple(expected)


def test_op_greedy_matches_walk_scan():
    for inst in _op_cases():
        p = inst.payload
        d = distance_matrix(p.coords).tolist()
        expected = oracles.op_greedy(d, p.prizes, p.distance_limit)
        assert op_greedy(inst).nodes == tuple(expected)


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
    cases = []
    for n in range(2, 9):
        coords = [(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(n)]
        prizes = [0] + [rnd.randint(1, 10) for _ in range(n - 1)]
        cases.append((coords, prizes, rnd.uniform(100, 250)))
        cases.append((coords, [0] * n, rnd.uniform(100, 250)))  # zero prizes
        # Below the nearest node's distance: no node is reachable.
        cases.append((coords, prizes, 0.5 * min(math.dist(coords[0], c) for c in coords[1:])))
        # Tie-rich: a 5x5 integer grid, prizes 0-2.
        grid = [(rnd.randint(0, 4), rnd.randint(0, 4)) for _ in range(n)]
        cases.append((grid, [0] + [rnd.randint(0, 2) for _ in range(n - 1)], rnd.choice([2, 5, 9])))
    for coords, prizes, limit in cases:
        n = len(coords)
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
        assert oracles.tour_length(coords, sol.nodes) <= limit + 1e-9
        assert oracles.prize_sum(prizes, sol.nodes) == val.value
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
    for top in (40, 40, 40, 3):  # the last trial has many tied makespans
        jobs, machines = 6, 3
        ptimes = [[rnd.randint(1, top) for _ in range(machines)] for _ in range(jobs)]
        inst = _pfsp(ptimes)
        sol, val = brute_force(inst)
        # min keeps the first best permutation, as the exact search must
        best = min(
            itertools.permutations(range(jobs)), key=lambda perm: pfsp_makespan(ptimes, perm)
        )
        assert sol.jobs == best
        assert val.value == pfsp_makespan(ptimes, best)


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
        (ProblemKind.TSP, 12),
        (ProblemKind.OP, 11),
        (ProblemKind.CVRP, 10),
        (ProblemKind.MIS, 25),
        (ProblemKind.MVC, 25),
        (ProblemKind.PFSP, 9),
        (ProblemKind.JSSP, 4),
    ]
    for kind, size in cases:
        inst = make_instance(kind, size=size, seed=0)
        with pytest.raises(BudgetExceededError) as exc:
            brute_force(inst)
        assert exc.value.kind is kind
        assert exc.value.limit == MAX_EXACT_SIZE[kind]
        assert "exceeds the exact-search budget" in str(exc.value)
