"""Exact solvers for small instances, with hard size budgets.

Every solver either returns a provably optimal solution or raises
BudgetExceededError: there is no silent fallback to a heuristic. The budgets
bound worst-case work, not typical runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..problems.generate import distance_matrix
from ..problems.types import (
    Instance,
    JobOrder,
    MachineSchedules,
    ObjectiveValue,
    ProblemKind,
    Route,
    RouteSet,
    Solution,
    VertexSet,
)
from ..verify import jssp_makespan, jssp_start_times, objective


class BudgetExceededError(Exception):
    """The instance is too large for exhaustive search."""

    def __init__(self, kind: ProblemKind, size: int, limit: int):
        super().__init__(
            f"{kind.value} instance of size {size} exceeds the exact-search "
            f"budget of {limit}"
        )
        self.kind = kind
        self.size = size
        self.limit = limit


@dataclass(frozen=True)
class BruteForceBudget:
    tsp_max_nodes: int = 11
    op_max_nodes: int = 10
    cvrp_max_customers: int = 8
    graph_max_nodes: int = 24
    pfsp_max_jobs: int = 8
    jssp_max_jobs: int = 3
    jssp_max_machines: int = 3


DEFAULT_BUDGET = BruteForceBudget()


def brute_force(
    inst: Instance, budget: BruteForceBudget = DEFAULT_BUDGET
) -> Tuple[Solution, ObjectiveValue]:
    """Optimal solution and objective, or BudgetExceededError."""
    kind = inst.kind
    if kind is ProblemKind.TSP:
        sol = _tsp_exact(inst, budget)
    elif kind is ProblemKind.OP:
        sol = _op_exact(inst, budget)
    elif kind is ProblemKind.CVRP:
        sol = _cvrp_exact(inst, budget)
    elif kind is ProblemKind.MIS:
        sol = VertexSet(frozenset(_mis_exact_ids(inst, budget)))
    elif kind is ProblemKind.MVC:
        mis = _mis_exact_ids(inst, budget)
        sol = VertexSet(frozenset(range(inst.payload.num_nodes)) - frozenset(mis))
    elif kind is ProblemKind.PFSP:
        sol = _pfsp_exact(inst, budget)
    else:
        sol = _jssp_exact(inst, budget)
    return sol, objective(inst, sol)


# ---------------------------------------------------------------------------
# Routing


def _tsp_exact(inst: Instance, budget: BruteForceBudget) -> Route:
    """Held-Karp over subsets of the non-depot nodes."""
    n = inst.payload.n
    if n > budget.tsp_max_nodes:
        raise BudgetExceededError(inst.kind, n, budget.tsp_max_nodes)
    d = distance_matrix(inst.payload.coords)
    if n == 2:
        return Route((0, 1, 0))
    m = n - 1  # nodes 1..n-1 tracked in the mask
    size = 1 << m
    dp = np.full((size, m), np.inf)
    parent = np.full((size, m), -1, dtype=np.int32)
    for j in range(m):
        dp[1 << j, j] = d[0, j + 1]
    for mask in range(size):
        row = dp[mask]
        for j in range(m):
            cur = row[j]
            if not np.isfinite(cur):
                continue
            for k in range(m):
                if mask & (1 << k):
                    continue
                nmask = mask | (1 << k)
                cand = cur + d[j + 1, k + 1]
                if cand < dp[nmask, k] - 1e-15:
                    dp[nmask, k] = cand
                    parent[nmask, k] = j
    full = size - 1
    totals = dp[full] + d[1:, 0]
    j = int(np.argmin(totals))
    seq = []
    mask = full
    while j >= 0:
        seq.append(j + 1)
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
    seq.reverse()
    return Route(tuple([0] + seq + [0]))


def _op_exact(inst: Instance, budget: BruteForceBudget) -> Route:
    """DP over (visited mask, last node) keeping the shortest path per state;
    the best prize over budget-feasible states is optimal."""
    p = inst.payload
    n = p.n
    if n > budget.op_max_nodes:
        raise BudgetExceededError(inst.kind, n, budget.op_max_nodes)
    d = distance_matrix(p.coords)
    budget_len = p.distance_limit + 1e-9
    size = 1 << n
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int32)
    start_mask = 1
    dp[start_mask, 0] = 0.0
    best_state = (start_mask, 0)
    best_key = (0.0, 0.0)  # (prize, -length) maximized
    prize_of_mask = np.zeros(size)
    prizes = np.asarray(p.prizes, dtype=float)
    for mask in range(size):
        if not mask & 1:
            continue
        for last in range(n):
            cur = dp[mask, last]
            if not np.isfinite(cur) or cur > budget_len:
                continue
            if prize_of_mask[mask] == 0.0 and mask != start_mask:
                total = 0.0
                mm = mask
                while mm:
                    b = (mm & -mm).bit_length() - 1
                    total += prizes[b]
                    mm &= mm - 1
                prize_of_mask[mask] = total
            key = (prize_of_mask[mask], -cur)
            if key > best_key:
                best_key = key
                best_state = (mask, last)
            for nxt in range(1, n):
                if mask & (1 << nxt):
                    continue
                cand = cur + d[last, nxt]
                if cand > budget_len:
                    continue
                nmask = mask | (1 << nxt)
                if cand < dp[nmask, nxt] - 1e-15:
                    dp[nmask, nxt] = cand
                    parent[nmask, nxt] = last
    mask, last = best_state
    seq = []
    while last >= 0:
        seq.append(last)
        pl = int(parent[mask, last])
        mask ^= 1 << last
        if pl < 0 and last != 0:
            seq.append(0)  # path root
            break
        last = pl if pl >= 0 else -1
    seq.reverse()
    if seq[0] != 0:
        seq = [0] + seq
    return Route(tuple(seq))


def _cvrp_exact(inst: Instance, budget: BruteForceBudget) -> RouteSet:
    """Optimal loop cost per customer subset (Held-Karp paths closed at the
    depot), then an optimal partition of all customers into feasible loops."""
    p = inst.payload
    n = p.n
    customers = n - 1
    if customers > budget.cvrp_max_customers:
        raise BudgetExceededError(inst.kind, customers, budget.cvrp_max_customers)
    d = distance_matrix(p.coords)
    size = 1 << customers
    demands = list(p.demands[1:])
    cap = p.capacity

    # Held-Karp path costs from the depot across each subset.
    dp = np.full((size, customers), np.inf)
    parent = np.full((size, customers), -1, dtype=np.int32)
    for j in range(customers):
        dp[1 << j, j] = d[0, j + 1]
    for mask in range(size):
        for j in range(customers):
            cur = dp[mask, j]
            if not np.isfinite(cur):
                continue
            for k in range(customers):
                if mask & (1 << k):
                    continue
                nmask = mask | (1 << k)
                cand = cur + d[j + 1, k + 1]
                if cand < dp[nmask, k] - 1e-15:
                    dp[nmask, k] = cand
                    parent[nmask, k] = j

    subset_demand = np.zeros(size)
    for mask in range(1, size):
        low = mask & -mask
        subset_demand[mask] = subset_demand[mask ^ low] + demands[low.bit_length() - 1]

    loop_cost = np.full(size, np.inf)
    loop_end = np.full(size, -1, dtype=np.int32)
    for mask in range(1, size):
        if subset_demand[mask] > cap + 1e-9:
            continue
        closes = dp[mask] + d[1:, 0]
        j = int(np.argmin(closes))
        loop_cost[mask] = closes[j]
        loop_end[mask] = j

    best = np.full(size, np.inf)
    choice = np.zeros(size, dtype=np.int64)
    best[0] = 0.0
    for mask in range(1, size):
        low = mask & -mask  # canonical: the subset containing the lowest customer
        sub = mask
        while sub:
            if sub & low and np.isfinite(loop_cost[sub]):
                cand = loop_cost[sub] + best[mask ^ sub]
                if cand < best[mask] - 1e-15:
                    best[mask] = cand
                    choice[mask] = sub
            sub = (sub - 1) & mask
    if not np.isfinite(best[size - 1]):
        raise ValueError("no feasible partition: some demand exceeds capacity")

    routes: List[Tuple[int, ...]] = []
    mask = size - 1
    while mask:
        sub = int(choice[mask])
        j = int(loop_end[sub])
        seq = []
        mm = sub
        while j >= 0:
            seq.append(j + 1)
            pj = int(parent[mm, j])
            mm ^= 1 << j
            j = pj
        seq.reverse()
        routes.append(tuple([0] + seq + [0]))
        mask ^= sub
    routes.sort()
    return RouteSet(tuple(routes))


# ---------------------------------------------------------------------------
# Graphs


def _mis_exact_ids(inst: Instance, budget: BruteForceBudget) -> List[int]:
    """Branch and bound over bitmasks: maximum independent set vertex list."""
    p = inst.payload
    n = p.num_nodes
    if n > budget.graph_max_nodes:
        raise BudgetExceededError(inst.kind, n, budget.graph_max_nodes)
    adj = [0] * n
    for u, v in p.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best_mask = 0
    best_size = 0

    def popcount(x: int) -> int:
        return bin(x).count("1")

    def rec(avail: int, cur: int, cur_size: int) -> None:
        nonlocal best_mask, best_size
        if cur_size + popcount(avail) <= best_size:
            return
        if avail == 0:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur
            return
        # branch on the highest-degree available vertex (ties: lower id)
        v, vdeg = -1, -1
        a = avail
        while a:
            low = a & -a
            u = low.bit_length() - 1
            du = popcount(adj[u] & avail)
            if du > vdeg:
                v, vdeg = u, du
            a &= a - 1
        rec(avail & ~(adj[v] | (1 << v)), cur | (1 << v), cur_size + 1)
        rec(avail & ~(1 << v), cur, cur_size)

    rec((1 << n) - 1, 0, 0)
    return [i for i in range(n) if best_mask & (1 << i)]


# ---------------------------------------------------------------------------
# Scheduling


def _pfsp_exact(inst: Instance, budget: BruteForceBudget) -> JobOrder:
    """Vectorized scan of all job permutations."""
    p = inst.payload
    jobs = p.num_jobs
    if jobs > budget.pfsp_max_jobs:
        raise BudgetExceededError(inst.kind, jobs, budget.pfsp_max_jobs)
    perms = np.array(list(itertools.permutations(range(jobs))), dtype=np.int64)
    pt = np.asarray(p.ptimes, dtype=float)  # J x M
    P = perms.shape[0]
    m = p.num_machines
    # completion[:, k] for machine i, rolled forward machine by machine
    completion = np.zeros((P, jobs))
    for i in range(m):
        stage = pt[perms[:, 0], i]
        prev_col = completion[:, 0] + stage
        new = np.empty((P, jobs))
        new[:, 0] = prev_col
        for k in range(1, jobs):
            prev_col = np.maximum(new[:, k - 1], completion[:, k]) + pt[perms[:, k], i]
            new[:, k] = prev_col
        completion = new
    makespans = completion[:, -1]
    best = int(np.argmin(makespans))
    return JobOrder(tuple(int(j) for j in perms[best]))


def _jssp_exact(inst: Instance, budget: BruteForceBudget) -> MachineSchedules:
    """Enumerate every combination of per-machine job sequences."""
    p = inst.payload
    jobs, machines = p.num_jobs, p.num_machines
    if jobs > budget.jssp_max_jobs or machines > budget.jssp_max_machines:
        raise BudgetExceededError(
            inst.kind, max(jobs, machines), max(budget.jssp_max_jobs, budget.jssp_max_machines)
        )
    perms = list(itertools.permutations(range(jobs)))
    best_sol: Optional[MachineSchedules] = None
    best_mk = float("inf")
    for combo in itertools.product(perms, repeat=machines):
        sol = MachineSchedules(tuple(combo))
        start = jssp_start_times(p, sol)
        if start is None:
            continue  # deadlocked combination
        mk = jssp_makespan(p, start)
        if mk < best_mk - 1e-12:
            best_mk = mk
            best_sol = sol
    assert best_sol is not None  # identical sequences always decode
    return best_sol
