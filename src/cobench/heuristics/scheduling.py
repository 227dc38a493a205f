"""PFSP constructive heuristics and JSSP dispatching rules."""

from __future__ import annotations

import math
from typing import List

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


def jssp_dispatch(inst: Instance, rule: str) -> MachineSchedules:
    """Non-delay dispatching simulation producing per-machine job sequences.

    At each step the earliest start over every job's next operation picks the
    machine (ties to the lower machine), and the rule picks among the
    operations that can start there at that time (ties to the lower job):
    spt  - shortest processing time,
    fifo - earliest arrival at the machine (job ready time),
    atc  - apparent tardiness cost. Instances carry no due dates, so every
           slack is 0, the index is 1/p, and atc picks what spt picks.
    """
    p = _require(inst, ProblemKind.JSSP)
    if rule not in ("spt", "fifo", "atc"):
        raise ValueError(f"unknown dispatching rule {rule!r}")
    jobs, machines = p.num_jobs, p.num_machines
    t_job = [0] * jobs       # completion time of each job's last operation
    t_mach = [0] * machines  # completion time of each machine's last operation
    next_op = [0] * jobs
    sequences: List[List[int]] = [[] for _ in range(machines)]
    key = (
        (lambda j: (t_job[j], j))
        if rule == "fifo"
        else (lambda j: (p.ptimes[j][next_op[j]], j))
    )

    for _ in range(jobs * machines):
        ready = []
        for j in range(jobs):
            if next_op[j] < machines:
                m = p.machine_order[j][next_op[j]]
                ready.append((max(t_job[j], t_mach[m]), m, j))
        start, machine, _ = min(ready)
        j = min((j for est, m, j in ready if m == machine and est == start), key=key)
        t_job[j] = t_mach[machine] = start + p.ptimes[j][next_op[j]]
        next_op[j] += 1
        sequences[machine].append(j)

    return MachineSchedules(tuple(tuple(s) for s in sequences))
