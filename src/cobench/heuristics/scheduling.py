"""PFSP constructive heuristics and JSSP dispatching rules."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..problems.types import Instance, JobOrder, MachineSchedules, ProblemKind
from ..verify import pfsp_makespan
from ._kinds import _require


def pfsp_palmer(inst: Instance) -> JobOrder:
    """Palmer's slope index: jobs whose processing times grow toward the later
    machines go first. Slope S_j = sum_i (2i - m - 1) * p_ji with i 1-based;
    jobs are ordered by decreasing S_j (ties to the lower job id)."""
    p = _require(inst, ProblemKind.PFSP)
    m = p.num_machines
    slopes = []
    for j in range(p.num_jobs):
        s = sum((2 * (i + 1) - m - 1) * p.ptimes[j][i] for i in range(m))
        slopes.append(s)
    order = sorted(range(p.num_jobs), key=lambda j: (-slopes[j], j))
    return JobOrder(tuple(order))


def pfsp_neh(inst: Instance) -> JobOrder:
    """NEH: take jobs by decreasing total work and insert each at the position
    that minimizes the partial makespan (earliest position on ties)."""
    p = _require(inst, ProblemKind.PFSP)
    totals = [sum(row) for row in p.ptimes]
    ranked = sorted(range(p.num_jobs), key=lambda j: (-totals[j], j))
    order: List[int] = []
    for j in ranked:
        best_pos, best_mk = 0, math.inf
        for pos in range(len(order) + 1):
            candidate = order[:pos] + [j] + order[pos:]
            mk = pfsp_makespan(p.ptimes, candidate)
            if mk < best_mk - 1e-12:
                best_mk, best_pos = mk, pos
        order.insert(best_pos, j)
    return JobOrder(tuple(order))


def jssp_dispatch(
    inst: Instance,
    rule: str = "spt",
    due_dates: Optional[Sequence[float]] = None,
    atc_k: float = 2.0,
) -> MachineSchedules:
    """Non-delay dispatching simulation producing per-machine job sequences.

    At each step the globally earliest startable operation's machine is
    selected, and the rule picks among that machine's ready candidates:
    spt  - shortest processing time,
    fifo - earliest arrival at the machine (job ready time),
    atc  - apparent tardiness cost index (w=1); without due dates (all 0,
           the default) the exponential term is 1 and atc reduces to spt.
    """
    p = _require(inst, ProblemKind.JSSP)
    if rule not in ("spt", "fifo", "atc"):
        raise ValueError(f"unknown dispatching rule {rule!r}")
    jobs, machines = p.num_jobs, p.num_machines
    due = list(due_dates) if due_dates is not None else [0.0] * jobs
    if len(due) != jobs:
        raise ValueError("need one due date per job")

    t_job = [0.0] * jobs        # completion time of each job's last operation
    t_mach = [0.0] * machines   # completion time of each machine's last operation
    next_op = [0] * jobs
    sequences: List[List[int]] = [[] for _ in range(machines)]

    for _ in range(jobs * machines):
        # earliest possible start over all pending operations
        best_machine, t_start = None, math.inf
        for j in range(jobs):
            i = next_op[j]
            if i >= machines:
                continue
            m = p.machine_order[j][i]
            est = max(t_job[j], t_mach[m])
            if est < t_start - 1e-12 or (
                abs(est - t_start) <= 1e-12 and (best_machine is None or m < best_machine)
            ):
                t_start, best_machine = est, m
        # candidates: pending ops on that machine able to start at t_start
        pool = []
        for j in range(jobs):
            i = next_op[j]
            if i < machines and p.machine_order[j][i] == best_machine:
                if max(t_job[j], t_mach[best_machine]) <= t_start + 1e-12:
                    pool.append(j)
        if rule == "spt":
            j = min(pool, key=lambda jj: (p.ptimes[jj][next_op[jj]], jj))
        elif rule == "fifo":
            j = min(pool, key=lambda jj: (t_job[jj], jj))
        else:
            pbar = sum(p.ptimes[jj][next_op[jj]] for jj in pool) / len(pool)
            def atc_index(jj: int) -> float:
                proc = p.ptimes[jj][next_op[jj]]
                slack = max(due[jj] - proc - t_start, 0.0)
                return (1.0 / proc) * math.exp(-slack / (atc_k * pbar))
            j = min(pool, key=lambda jj: (-atc_index(jj), jj))
        i = next_op[j]
        start = max(t_job[j], t_mach[best_machine])
        finish = start + p.ptimes[j][i]
        t_job[j] = finish
        t_mach[best_machine] = finish
        next_op[j] = i + 1
        sequences[best_machine].append(j)

    return MachineSchedules(tuple(tuple(s) for s in sequences))
