"""PFSP constructive heuristics and JSSP dispatching rules."""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import List, Set

from ..problems.types import Instance, JobOrder, MachineSchedules, ProblemKind
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


def _heads(rows, m: int) -> List[List[int]]:
    """Per prefix of `rows`, processing-time rows in sequence, the completion
    time of its last job on each of the `m` machines; the empty prefix's
    are 0."""
    heads = [[0] * m]
    machines = range(m)
    for row in rows:
        prev, c, head = heads[-1], 0, []
        for i in machines:
            h = prev[i]
            c = (c if c > h else h) + row[i]
            head.append(c)
        heads.append(head)
    return heads


def pfsp_neh(inst: Instance) -> JobOrder:
    """NEH: take jobs by decreasing total work (ties to the lower job) and
    insert each at the position that minimizes the partial makespan
    (earliest position on ties).

    Taillard's head and tail tables (Taillard, EJOR 47, 1990) give each trial
    insertion's makespan in O(m): the inserted job's completions follow the
    heads of the jobs before it, and the makespan is the largest sum of its
    completion on a machine and the tail of the jobs after it there. Tails
    are the heads of the reversed flow shop: jobs and machines both run
    backwards. A solve costs O(n^2 m), where a full decode per trial costs
    O(n^3 m). Times are integers, so every makespan, and so every
    comparison, is exact."""
    p = _require(inst, ProblemKind.PFSP)
    ptimes, m = p.ptimes, p.num_machines
    totals = [sum(row) for row in ptimes]
    ranked = sorted(range(p.num_jobs), key=lambda j: (-totals[j], j))
    backwards = [row[::-1] for row in ptimes]
    machines = range(m)
    order: List[int] = []
    for j in ranked:
        heads = _heads([ptimes[k] for k in order], m)
        # tails[-1 - pos][-1 - i]: the time the jobs order[pos:] need on
        # machines i.. once they start on machine i.
        tails = _heads([backwards[k] for k in reversed(order)], m)
        row = ptimes[j]
        best_pos, best_mk = 0, math.inf
        for pos, head in enumerate(heads):
            tail = tails[-1 - pos]
            c = mk = 0
            for i in machines:
                h = head[i]
                c = (c if c > h else h) + row[i]
                t = c + tail[-1 - i]
                if t > mk:
                    mk = t
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

    Each job's earliest start sits in a heap keyed (start, machine, job), and
    an entry whose start is no longer the job's is dropped when it reaches
    the top. A step changes the start of the job it schedules and of the
    jobs waiting on that machine, and of no other job, so it costs one scan
    of that machine's queue and a heap push per changed start, where a
    rescan builds a tuple for every job at every step.
    """
    p = _require(inst, ProblemKind.JSSP)
    if rule not in ("spt", "fifo", "atc"):
        raise ValueError(f"unknown dispatching rule {rule!r}")
    jobs, machines = p.num_jobs, p.num_machines
    ptimes, machine_order = p.ptimes, p.machine_order
    t_job = [0] * jobs       # completion time of each job's last operation
    t_mach = [0] * machines  # completion time of each machine's last operation
    next_op = [0] * jobs
    start = [0] * jobs       # earliest start of each job's next operation
    waiting: List[Set[int]] = [set() for _ in range(machines)]
    for j in range(jobs):
        waiting[machine_order[j][0]].add(j)
    heap = [(0, machine_order[j][0], j) for j in range(jobs)]
    heapify(heap)
    sequences: List[List[int]] = [[] for _ in range(machines)]
    key = (
        (lambda j: (t_job[j], j))
        if rule == "fifo"
        else (lambda j: (ptimes[j][next_op[j]], j))
    )

    for _ in range(jobs * machines):
        while True:
            now, machine, j = heap[0]
            if start[j] == now:
                break
            heappop(heap)
        queue = waiting[machine]  # holds j
        if len(queue) > 1:
            j = min((k for k in queue if start[k] == now), key=key)
        t_job[j] = t_mach[machine] = end = now + ptimes[j][next_op[j]]
        next_op[j] += 1
        sequences[machine].append(j)
        queue.discard(j)
        for k in queue:  # a start below `end` was the machine's old free time
            if end > start[k]:
                start[k] = end
                heappush(heap, (end, machine, k))
        if next_op[j] < machines:
            m = machine_order[j][next_op[j]]
            waiting[m].add(j)
            start[j] = s = end if end > t_mach[m] else t_mach[m]
            heappush(heap, (s, m, j))
        else:
            start[j] = None

    return MachineSchedules(tuple(tuple(s) for s in sequences))
