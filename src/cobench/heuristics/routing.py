"""Constructive and local-search heuristics for TSP, OP, and CVRP.

All tie-breaks go to the lowest node id, so every deterministic method here
is reproducible; the stochastic Tsili sampler draws from its seed, 0 by default.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..problems.generate import distance_matrix, nearest_neighbor_tour
from ..problems.types import Instance, ProblemKind, Route, RouteSet
from ._kinds import _require
from .rollout import rollout, roulette, within_budget

_EPS = 1e-12
_IMPROVE_TOL = 1e-10


# ---------------------------------------------------------------------------
# TSP


def tsp_nearest_neighbor(inst: Instance) -> Route:
    """Greedy nearest-neighbor tour from node 0, closed back to it."""
    p = _require(inst, ProblemKind.TSP)
    return Route(tuple(nearest_neighbor_tour(distance_matrix(p.coords)) + [0]))


def two_opt(d: np.ndarray, tour: Sequence[int]) -> List[int]:
    """First-improvement 2-opt on a closed tour until locally optimal.

    Scans (i, j) pairs in lexicographic order and applies the first reversal
    that shortens the tour, vectorized over the whole delta table per pass.
    """
    r = np.asarray(tour, dtype=int)
    if r[0] != r[-1]:
        raise ValueError("two_opt expects a closed tour")
    n = len(r) - 1
    if n < 4:
        return list(map(int, r))
    # mask[i, j] marks candidate edge pairs (i, i+1) and (j, j+1), j >= i+2,
    # excluding the pair that shares the wrap-around node.
    mask = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=2)
    mask[iu] = True
    mask[0, n - 1] = False
    while True:
        heads = r[:-1]
        tails = r[1:]
        edge = d[heads, tails]
        delta = (
            d[heads[:, None], heads[None, :]]
            + d[tails[:, None], tails[None, :]]
            - edge[:, None]
            - edge[None, :]
        )
        improving = (delta < -_IMPROVE_TOL) & mask
        if not improving.any():
            return list(map(int, r))
        flat = int(np.argmax(improving))  # first True in row-major order
        i, j = divmod(flat, n)
        r[i + 1 : j + 1] = r[i + 1 : j + 1][::-1]


def tsp_farthest_insertion(inst: Instance) -> Route:
    """Farthest insertion followed by a 2-opt local search pass."""
    p = _require(inst, ProblemKind.TSP)
    d = distance_matrix(p.coords)
    n = p.n
    start = 0
    far = d[start].copy()
    far[start] = -np.inf  # coincident nodes must not pick the start itself
    first = int(np.argmax(far))
    tour = [start, first, start]
    in_tour = np.zeros(n, dtype=bool)
    in_tour[[start, first]] = True
    # dist_to_tour[v]: distance from v to the nearest tour node.
    dist_to_tour = np.minimum(d[start], d[first])
    dist_to_tour[in_tour] = -np.inf
    for _ in range(n - 2):
        v = int(np.argmax(dist_to_tour))  # farthest city, lowest id on ties
        # cheapest insertion position
        best_pos, best_delta = 0, math.inf
        for pos in range(len(tour) - 1):
            a, b = tour[pos], tour[pos + 1]
            delta = d[a, v] + d[v, b] - d[a, b]
            if delta < best_delta - _IMPROVE_TOL:
                best_delta, best_pos = delta, pos
        tour.insert(best_pos + 1, v)
        in_tour[v] = True
        dist_to_tour = np.minimum(dist_to_tour, d[v])
        dist_to_tour[v] = -np.inf
    return Route(tuple(two_opt(d, tour)))


# ---------------------------------------------------------------------------
# OP


def op_greedy(inst: Instance) -> Route:
    """From the depot, repeatedly move to the unvisited node with the best
    prize/distance ratio that still fits in the length budget."""
    p = _require(inst, ProblemKind.OP)
    d = distance_matrix(p.coords)
    prizes = np.asarray(p.prizes, dtype=float)

    def choose(cur: np.ndarray, feasible: np.ndarray) -> np.ndarray:
        ratio = np.where(feasible, prizes / np.maximum(d[cur], _EPS), -np.inf)
        return np.argmax(ratio, axis=1)

    walk = rollout(d, 1, choose, within_budget(d, p.distance_limit)).paths[0]
    return Route(tuple(int(v) for v in walk if v >= 0))


def op_greedy_insertion(inst: Instance) -> Route:
    """Grow a route by inserting, at its cheapest position, the node with the
    best prize-per-added-distance ratio while the budget allows.

    Each insertion scores every (node, position) pair at once; position k
    goes between route[k] and route[k + 1], and the last one appends. The
    row-major argmax sends ratio ties to the lower node, then the lower
    position."""
    p = _require(inst, ProblemKind.OP)
    d = distance_matrix(p.coords)
    prizes = np.asarray(p.prizes)[:, None]
    budget = p.distance_limit
    route = [0]
    unvisited = np.ones(p.n, dtype=bool)
    unvisited[0] = False
    length = 0.0
    while True:
        a, b = route[:-1], route[1:]
        delta = np.empty((p.n, len(route)))
        delta[:, :-1] = d[a].T + d[:, b] - d[a, b]
        delta[:, -1] = d[route[-1]]
        fits = unvisited[:, None] & (length + delta <= budget + 1e-9)
        if not fits.any():
            break
        ratio = np.where(fits, prizes / np.maximum(delta, _EPS), -np.inf)
        v, pos = divmod(int(np.argmax(ratio)), len(route))
        route.insert(pos + 1, v)
        unvisited[v] = False
        length += delta[v, pos]
    return Route(tuple(route))


def op_tsili(inst: Instance, samples: int = 1280, seed: int = 0) -> Route:
    """Stochastic rollout sampler: each rollout walks from the depot choosing
    among the 4 nearest budget-feasible nodes with probability proportional to
    (prize/distance)^4. Returns the best-prize rollout (shorter length on
    ties). All rollouts run vectorized."""
    p = _require(inst, ProblemKind.OP)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = distance_matrix(p.coords)
    prizes = np.asarray(p.prizes, dtype=float)
    rng = np.random.default_rng(seed)
    rows = np.arange(samples)
    width = min(4, max(1, p.n - 1))

    def choose(cur: np.ndarray, feasible: np.ndarray) -> np.ndarray:
        masked = np.where(feasible, d[cur], np.inf)
        cand = np.argpartition(masked, kth=width - 1, axis=1)[:, :width]
        cand_d = np.take_along_axis(masked, cand, axis=1)
        ok = np.isfinite(cand_d)
        w = np.where(ok, (prizes[cand] / np.maximum(cand_d, _EPS)) ** 4, 0.0)
        row_sum = w.sum(axis=1, keepdims=True)
        degenerate = row_sum[:, 0] <= 0
        if degenerate.any():  # all candidate prizes zero: fall back to uniform
            w[degenerate] = ok[degenerate]
            row_sum = w.sum(axis=1, keepdims=True)
        return cand[rows, roulette(w / np.maximum(row_sum, _EPS), ok, rng)]

    walks = rollout(d, samples, choose, within_budget(d, p.distance_limit), gain=prizes)
    best = int(np.lexsort((walks.length, -walks.load))[0])
    return Route(tuple(int(v) for v in walks.paths[best] if v >= 0))


# ---------------------------------------------------------------------------
# CVRP


def _route_order_nn(d: np.ndarray, members: List[int]) -> List[int]:
    """Order one vehicle's customers by nearest neighbor from the depot,
    then 2-opt the closed loop."""
    ids = [0] + sorted(members)  # ascending, so local ties go to the lower global id
    route = [ids[i] for i in nearest_neighbor_tour(d[np.ix_(ids, ids)])] + [0]
    if len(route) > 4:
        route = two_opt(d, route)
    return route


def cvrp_sweep(inst: Instance) -> RouteSet:
    """Sweep: sort customers by polar angle around the depot, cut whenever
    the next customer would overflow the vehicle, route each sector."""
    p = _require(inst, ProblemKind.CVRP)
    d = distance_matrix(p.coords)
    coords = np.asarray(p.coords, dtype=float)
    depot = coords[0]
    customers = list(range(1, p.n))
    angles = {
        v: math.atan2(coords[v][1] - depot[1], coords[v][0] - depot[0]) for v in customers
    }
    radius = {v: float(d[0, v]) for v in customers}
    customers.sort(key=lambda v: (angles[v], radius[v], v))

    groups: List[List[int]] = []
    load = 0
    current: List[int] = []
    for v in customers:
        if current and load + p.demands[v] > p.capacity:
            groups.append(current)
            current, load = [], 0
        current.append(v)
        load += p.demands[v]
    if current:
        groups.append(current)
    routes = tuple(tuple(_route_order_nn(d, g)) for g in groups)
    return RouteSet(routes)


def cvrp_savings(inst: Instance) -> RouteSet:
    """Clarke-Wright parallel savings: merge single-customer loops in order of
    decreasing savings while endpoints stay depot-adjacent and loads fit."""
    p = _require(inst, ProblemKind.CVRP)
    d = distance_matrix(p.coords)
    n = p.n
    routes: dict[int, List[int]] = {v: [v] for v in range(1, n)}  # interior only
    owner = {v: v for v in range(1, n)}
    load = {v: p.demands[v] for v in range(1, n)}

    savings = []
    for i in range(1, n):
        for j in range(i + 1, n):
            s = d[0, i] + d[0, j] - d[i, j]
            savings.append((-s, i, j))
    savings.sort()

    for neg_s, i, j in savings:
        if -neg_s <= _IMPROVE_TOL:
            break  # no benefit in joining farther pairs
        ri, rj = owner[i], owner[j]
        if ri == rj:
            continue
        a, b = routes[ri], routes[rj]
        if load[ri] + load[rj] > p.capacity:
            continue
        # i and j must both touch the depot in their current loops.
        if a[-1] != i:
            if a[0] == i:
                a.reverse()
            else:
                continue
        if b[0] != j:
            if b[-1] == j:
                b.reverse()
            else:
                continue
        a.extend(b)
        load[ri] += load[rj]
        for v in b:
            owner[v] = ri
        del routes[rj], load[rj]

    ordered = [routes[k] for k in sorted(routes)]
    return RouteSet(tuple(tuple([0] + r + [0]) for r in ordered))
