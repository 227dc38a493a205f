"""Exact solvers for small instances, with hard size budgets.

Every solver either returns a provably optimal solution or raises
BudgetExceededError: there is no silent fallback to a heuristic. The size
budgets in MAX_EXACT_SIZE bound worst-case work, not typical runtime, and
brute_force checks them once before it dispatches.

One Held-Karp table of shortest depot-rooted paths over node subsets serves
all three routing kinds: TSP closes the full set's paths at the depot, OP
picks the best-prize path within its length budget, and CVRP closes every
subset's paths into loops and partitions the customers among them.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Mapping, Optional, Tuple

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


# The largest instance each kind searches: nodes for TSP, OP, MIS and MVC,
# customers for CVRP, jobs for PFSP, and the larger of jobs and machines for
# JSSP.
MAX_EXACT_SIZE: Mapping[ProblemKind, int] = {
    ProblemKind.TSP: 11,
    ProblemKind.OP: 10,
    ProblemKind.CVRP: 8,
    ProblemKind.MIS: 24,
    ProblemKind.MVC: 24,
    ProblemKind.PFSP: 8,
    ProblemKind.JSSP: 3,
}


def _exact_size(inst: Instance) -> int:
    """The instance's size in the units of MAX_EXACT_SIZE."""
    p = inst.payload
    if inst.kind is ProblemKind.CVRP:
        return p.n - 1
    if inst.kind is ProblemKind.PFSP:
        return p.num_jobs
    if inst.kind is ProblemKind.JSSP:
        return max(p.num_jobs, p.num_machines)
    return p.n


def brute_force(inst: Instance) -> Tuple[Solution, ObjectiveValue]:
    """Optimal solution and objective, or BudgetExceededError."""
    kind = inst.kind
    size, limit = _exact_size(inst), MAX_EXACT_SIZE[kind]
    if size > limit:
        raise BudgetExceededError(kind, size, limit)
    if kind is ProblemKind.TSP:
        sol = _tsp_exact(inst)
    elif kind is ProblemKind.OP:
        sol = _op_exact(inst)
    elif kind is ProblemKind.CVRP:
        sol = _cvrp_exact(inst)
    elif kind is ProblemKind.MIS:
        sol = VertexSet(frozenset(_mis_exact_ids(inst)))
    elif kind is ProblemKind.MVC:
        mis = _mis_exact_ids(inst)
        sol = VertexSet(frozenset(range(inst.payload.num_nodes)) - frozenset(mis))
    elif kind is ProblemKind.PFSP:
        sol = _pfsp_exact(inst)
    else:
        sol = _jssp_exact(inst)
    return sol, objective(inst, sol)


# ---------------------------------------------------------------------------
# Routing


def _held_karp(d: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Shortest depot-rooted paths over subsets of nodes 1..m.

    dp[mask, j] is the length of the shortest path that leaves the depot,
    visits exactly the nodes of `mask` (bit j stands for node j + 1) and ends
    at node j + 1; parent[mask, j] is the bit of the node before it, or -1
    after the depot."""
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
    return dp, parent


def _path(parent: np.ndarray, mask: int, j: int) -> List[int]:
    """The nodes after the depot on the dp[mask, j] path, in path order."""
    seq = []
    while j >= 0:
        seq.append(j + 1)
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
    seq.reverse()
    return seq


def _loop(d: np.ndarray, dp: np.ndarray, parent: np.ndarray, mask: int) -> Tuple[int, ...]:
    """The shortest closed depot loop through the nodes of `mask`."""
    j = int(np.argmin(dp[mask] + d[1:, 0]))
    return tuple([0] + _path(parent, mask, j) + [0])


def _subset_sums(weights) -> np.ndarray:
    """sums[mask] is the total weight of the nodes of `mask` (bit j stands
    for weights[j])."""
    size = 1 << len(weights)
    sums = np.zeros(size)
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def _tsp_exact(inst: Instance) -> Route:
    """Held-Karp over subsets of the non-depot nodes."""
    n = inst.payload.n
    d = distance_matrix(inst.payload.coords)
    dp, parent = _held_karp(d, n - 1)
    return Route(_loop(d, dp, parent, (1 << (n - 1)) - 1))


def _op_exact(inst: Instance) -> Route:
    """The open depot path of the Held-Karp state with the largest prize
    within the length budget; ties go to the shorter path, then to the
    first state in mask-major order."""
    p = inst.payload
    n = p.n
    d = distance_matrix(p.coords)
    dp, parent = _held_karp(d, n - 1)
    fits = dp <= p.distance_limit + 1e-9
    prize = np.where(fits, _subset_sums(p.prizes[1:])[:, None], -np.inf)
    best = prize.max()
    if best <= 0:
        return Route((0,))
    mask, j = divmod(int(np.argmin(np.where(prize == best, dp, np.inf))), n - 1)
    return Route(tuple([0] + _path(parent, mask, j)))


def _cvrp_exact(inst: Instance) -> RouteSet:
    """Optimal loop cost per customer subset (Held-Karp paths closed at the
    depot), then an optimal partition of all customers into feasible loops."""
    p = inst.payload
    n = p.n
    customers = n - 1
    d = distance_matrix(p.coords)
    size = 1 << customers
    dp, parent = _held_karp(d, customers)

    loop_cost = (dp + d[1:, 0]).min(axis=1)
    loop_cost[_subset_sums(p.demands[1:]) > p.capacity + 1e-9] = np.inf

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
        routes.append(_loop(d, dp, parent, sub))
        mask ^= sub
    routes.sort()
    return RouteSet(tuple(routes))


# ---------------------------------------------------------------------------
# Graphs


def _mis_exact_ids(inst: Instance) -> List[int]:
    """Branch and bound over bitmasks: maximum independent set vertex list."""
    p = inst.payload
    n = p.num_nodes
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


def _pfsp_exact(inst: Instance) -> JobOrder:
    """Vectorized scan of all job permutations, one position at a time."""
    p = inst.payload
    jobs = p.num_jobs
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(jobs))),
        dtype=np.int64,
        count=math.factorial(jobs) * jobs,
    ).reshape(-1, jobs)
    pt = np.asarray(p.ptimes, dtype=float)  # J x M
    # completion[:, i]: when machine i finishes the jobs placed so far. The
    # flow-shop step C'_i = max(C'_{i-1}, C_i) + t_i, for a job with times t,
    # unrolls into C'_i = cum_i + max over k <= i of (C_k - before_k), where
    # cum is the cumsum of t over the machines and before = cum - t. On
    # integer times every sum is exact, so each makespan equals the one
    # verify.pfsp_makespan computes step by step.
    cum = pt.cumsum(axis=1)
    before = cum - pt
    completion = np.zeros((len(perms), p.num_machines))
    for column in perms.T:
        completion -= before[column]
        np.maximum.accumulate(completion, axis=1, out=completion)
        completion += cum[column]
    best = int(np.argmin(completion[:, -1]))
    return JobOrder(tuple(int(j) for j in perms[best]))


def _jssp_exact(inst: Instance) -> MachineSchedules:
    """Enumerate every combination of per-machine job sequences."""
    p = inst.payload
    jobs, machines = p.num_jobs, p.num_machines
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
