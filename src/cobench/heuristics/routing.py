"""Constructive and local-search heuristics for TSP, OP, and CVRP.

All tie-breaks go to the lowest node id, so every deterministic method here
is reproducible; the stochastic Tsili sampler takes an explicit seed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..problems.generate import distance_matrix
from ..problems.types import Instance, ProblemKind, Route, RouteSet, RoutingInstance
from .rollout import rollout, roulette, within_budget

_EPS = 1e-12
_IMPROVE_TOL = 1e-10


def _require(inst: Instance, kind: ProblemKind) -> RoutingInstance:
    if inst.kind is not kind:
        raise ValueError(f"expected a {kind.value} instance, got {inst.kind.value}")
    return inst.payload


# ---------------------------------------------------------------------------
# TSP


def tsp_nearest_neighbor(inst: Instance, start: int = 0) -> Route:
    """Greedy nearest-neighbor tour from `start`, closed back to it."""
    p = _require(inst, ProblemKind.TSP)
    d = distance_matrix(p.coords)
    n = p.n
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    tour = [start]
    cur = start
    for _ in range(n - 1):
        row = np.where(visited, np.inf, d[cur])
        cur = int(np.argmin(row))  # first minimum wins: lowest id on ties
        visited[cur] = True
        tour.append(cur)
    tour.append(start)
    return Route(tuple(tour))


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


def tsp_farthest_insertion(inst: Instance, local_search: bool = True) -> Route:
    """Farthest insertion followed by a 2-opt local search pass."""
    p = _require(inst, ProblemKind.TSP)
    d = distance_matrix(p.coords)
    n = p.n
    start = 0
    first = int(np.argmax(d[start]))
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
    if local_search:
        tour = two_opt(d, tour)
    return Route(tuple(tour))


# ---------------------------------------------------------------------------
# OP


def op_greedy(inst: Instance) -> Route:
    """From the depot, repeatedly move to the unvisited node with the best
    prize/distance ratio that still fits in the length budget."""
    p = _require(inst, ProblemKind.OP)
    d = distance_matrix(p.coords)
    prizes = np.asarray(p.prizes, dtype=float)
    n = p.n
    budget = p.distance_limit
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    route = [0]
    cur, used = 0, 0.0
    while True:
        step = d[cur]
        feasible = (~visited) & (used + step <= budget + 1e-9)
        if not feasible.any():
            break
        ratio = np.where(feasible, prizes / np.maximum(step, _EPS), -np.inf)
        nxt = int(np.argmax(ratio))
        used += float(step[nxt])
        visited[nxt] = True
        route.append(nxt)
        cur = nxt
    return Route(tuple(route))


def op_greedy_insertion(inst: Instance) -> Route:
    """Grow a route by inserting, at its cheapest position, the node with the
    best prize-per-added-distance ratio while the budget allows."""
    p = _require(inst, ProblemKind.OP)
    d = distance_matrix(p.coords)
    prizes = p.prizes
    n = p.n
    budget = p.distance_limit
    route = [0]
    visited = {0}
    length = 0.0
    while True:
        best = None  # (ratio, -node) maximized; then (pos, delta)
        for v in range(n):
            if v in visited:
                continue
            # positions: between consecutive nodes, or appended at the end
            for pos in range(len(route)):
                if pos < len(route) - 1:
                    a, b = route[pos], route[pos + 1]
                    delta = d[a, v] + d[v, b] - d[a, b]
                else:
                    delta = d[route[-1], v]
                if length + delta > budget + 1e-9:
                    continue
                ratio = prizes[v] / max(delta, _EPS)
                key = (ratio, -v, -pos)
                if best is None or key > best[0]:
                    best = (key, v, pos, delta)
        if best is None:
            break
        _, v, pos, delta = best
        route.insert(pos + 1, v)
        visited.add(v)
        length += delta
    return Route(tuple(route))


def op_tsili(inst: Instance, samples: int = 1280, seed: Optional[int] = None) -> Route:
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
    route = [0]
    remaining = set(members)
    cur = 0
    while remaining:
        nxt = min(remaining, key=lambda v: (d[cur, v], v))
        route.append(nxt)
        remaining.discard(nxt)
        cur = nxt
    route.append(0)
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
