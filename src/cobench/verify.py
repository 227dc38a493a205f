"""Feasibility checking and objective computation in one scoring pass.

score() checks every constraint and computes the objective value from the
same validated view of the solution, and never raises. Every id passes one
gate first (an integer in range), so a solution the report calls feasible
always has a value: feasible implies objective() succeeds. A solution that
is well-formed but infeasible still gets a value; the value is None only
when the solution cannot be scored at all (wrong type, bad ids, JSSP rows
that are not permutations, or a deadlocked schedule). check() and
objective() are thin views of score(); objective() raises ValueError where
the value is None.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .problems.types import (
    GraphInstance,
    Instance,
    JobOrder,
    MachineSchedules,
    ObjectiveValue,
    ProblemKind,
    Route,
    RouteSet,
    RoutingInstance,
    SchedulingInstance,
    Solution,
    SOLUTION_TYPE_BY_KIND,
    SENSE_BY_KIND,
    VertexSet,
)

# Absolute tolerance for comparing route lengths and loads against limits.
TOLERANCE = 1e-6

# Ordered constraint names per kind; the order indexes the reward weights.
CONSTRAINT_NAMES: Mapping[ProblemKind, Tuple[str, ...]] = {
    ProblemKind.TSP: ("visits_each_node_once", "returns_to_start"),
    ProblemKind.OP: ("starts_at_depot", "visits_nodes_at_most_once", "within_distance_limit"),
    ProblemKind.CVRP: ("routes_start_end_at_depot", "customers_exactly_once", "capacity_respected"),
    ProblemKind.MIS: ("independent_set",),
    ProblemKind.MVC: ("edges_covered",),
    ProblemKind.PFSP: ("job_permutation",),
    ProblemKind.JSSP: ("all_jobs_scheduled", "no_machine_conflict", "precedence_respected"),
}


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of checking one candidate against one instance.

    zeta is the format/structure gate: False means the solution did not even
    match the instance's solution shape. constraints are (name, ok) pairs in
    the canonical order; margins are (name, slack) pairs where slack < 0
    means violated (OP distance budget, CVRP tightest vehicle).
    """

    zeta: bool
    constraints: Tuple[Tuple[str, bool], ...]
    margins: Tuple[Tuple[str, float], ...] = ()

    @property
    def feasible(self) -> bool:
        return self.zeta and all(ok for _, ok in self.constraints)

    def constraint_flags(self) -> Tuple[bool, ...]:
        return tuple(ok for _, ok in self.constraints)

    def to_dict(self) -> dict:
        return {
            "zeta": self.zeta,
            "constraints": [[name, ok] for name, ok in self.constraints],
            "margins": [[name, value] for name, value in self.margins],
            "feasible": self.feasible,
        }


Scored = Tuple[FeasibilityReport, Optional[float]]


def _report(kind: ProblemKind, *flags, margins=()) -> FeasibilityReport:
    names = CONSTRAINT_NAMES[kind]
    return FeasibilityReport(
        zeta=True,
        constraints=tuple((n, bool(ok)) for n, ok in zip(names, flags)),
        margins=margins,
    )


def _failed_report(kind: ProblemKind) -> FeasibilityReport:
    names = CONSTRAINT_NAMES[kind]
    return FeasibilityReport(zeta=False, constraints=tuple((n, False) for n in names))


def route_length(coords, nodes) -> float:
    """Sum of Euclidean edge lengths along a node sequence (open path).

    Each edge is euclid()'s arithmetic inlined, and edges are summed in
    path order, so lengths match a loop over euclid() bit for bit."""
    total = 0.0
    if not nodes:
        return total
    x0, y0 = coords[nodes[0]]
    for b in nodes[1:]:
        x1, y1 = coords[b]
        total += math.hypot(x0 - x1, y0 - y1)
        x0, y0 = x1, y1
    return total


def score(inst: Instance, sol: Solution) -> Scored:
    """Feasibility report and objective value of `sol`. Never raises.

    The value is None only when the solution cannot be scored; it is never
    None for a solution the report calls feasible.
    """
    if not isinstance(sol, SOLUTION_TYPE_BY_KIND[inst.kind]):
        return _failed_report(inst.kind), None
    return _SCORERS[inst.kind](inst.payload, sol)


def check(inst: Instance, sol: Solution) -> FeasibilityReport:
    """Evaluate every constraint of `inst` against `sol`. Never raises."""
    return score(inst, sol)[0]


def objective(inst: Instance, sol: Solution) -> ObjectiveValue:
    """Compute the objective value of `sol`, feasible or not.

    Raises ValueError if the solution is structurally unscoreable
    (wrong shape, out-of-range ids, or a deadlocked JSSP schedule).
    """
    report, value = score(inst, sol)
    if value is None:
        kind = inst.kind
        if not report.zeta:
            cause = (
                f"{kind.value} expects {SOLUTION_TYPE_BY_KIND[kind].__name__}, "
                f"got {type(sol).__name__}"
            )
        elif kind is not ProblemKind.JSSP:
            cause = "solution has out-of-range, non-integer or missing ids"
        elif report.constraints[0][1]:
            cause = "schedule deadlocks (cyclic machine/job order)"
        else:
            cause = "machine sequences are not permutations of the jobs"
        raise ValueError(cause)
    return ObjectiveValue(value=value, sense=SENSE_BY_KIND[inst.kind])


def _ids_ok(ids, n: int) -> bool:
    """The one id gate: integers (numpy ones included) in [0, n).

    The exact-type test is a fast path: an ABC isinstance check costs ~10x
    more, and parsed ids are plain ints."""
    return all(
        (type(v) is int or isinstance(v, numbers.Integral)) and 0 <= v < n for v in ids
    )


# ---------------------------------------------------------------------------
# Routing


def _score_tsp(p: RoutingInstance, sol: Route) -> Scored:
    nodes = sol.nodes
    ids_ok = _ids_ok(nodes, p.n)
    closed = len(nodes) >= 2 and nodes[0] == nodes[-1]
    body = nodes[:-1] if closed else nodes
    # With every id in range, n distinct ids are exactly the n nodes.
    visits_once = ids_ok and len(body) == p.n and len(set(body)) == p.n
    value = route_length(p.coords, nodes) if ids_ok and nodes else None
    return _report(ProblemKind.TSP, visits_once, closed), value


def _score_op(p: RoutingInstance, sol: Route) -> Scored:
    nodes = sol.nodes
    starts = bool(nodes) and nodes[0] == p.depot_index
    if not (nodes and _ids_ok(nodes, p.n)):
        # An empty route revisits nothing; bad ids leave the visits undefined.
        return _report(ProblemKind.OP, starts, not nodes, False), None
    # A single trailing return to the depot is allowed and not a revisit.
    core = nodes[:-1] if (len(nodes) >= 2 and nodes[-1] == nodes[0]) else nodes
    length = route_length(p.coords, nodes)
    report = _report(
        ProblemKind.OP,
        starts,
        len(set(core)) == len(core),
        length <= p.distance_limit + TOLERANCE,
        margins=(("distance_limit", p.distance_limit - length),),
    )
    return report, float(sum(p.prizes[v] for v in set(nodes)))


def _score_cvrp(p: RoutingInstance, sol: RouteSet) -> Scored:
    depot = p.depot_index
    routes = [r for r in sol.routes if len(r) > 0]
    nonempty = [r for r in routes if any(v != depot for v in r)]
    endpoints_ok = bool(routes) and all(
        len(r) >= 2 and r[0] == depot and r[-1] == depot for r in nonempty
    )
    if not all(_ids_ok(r, p.n) for r in routes):
        return _report(ProblemKind.CVRP, endpoints_ok, False, False), None

    visits = [v for r in routes for v in r if v != depot]
    # With every id in range, n - 1 distinct non-depot ids are the customers.
    exactly_once = len(visits) == p.n - 1 and len(set(visits)) == p.n - 1
    loads = [sum(p.demands[v] for v in r if v != depot) for r in nonempty]
    capacity_ok = all(load <= p.capacity + TOLERANCE for load in loads)
    slack = min((p.capacity - load for load in loads), default=float(p.capacity))
    report = _report(
        ProblemKind.CVRP,
        endpoints_ok,
        exactly_once,
        capacity_ok,
        margins=(("capacity", float(slack)),),
    )
    total = 0.0
    for r in routes:
        total += route_length(p.coords, r)
    return report, total


# ---------------------------------------------------------------------------
# Graphs


def _score_mis(p: GraphInstance, sol: VertexSet) -> Scored:
    chosen = sol.vertices
    if not _ids_ok(chosen, p.num_nodes):
        return _report(ProblemKind.MIS, False), None
    independent = not any(u in chosen and v in chosen for u, v in p.edges)
    return _report(ProblemKind.MIS, independent), float(len(chosen))


def _score_mvc(p: GraphInstance, sol: VertexSet) -> Scored:
    chosen = sol.vertices
    if not _ids_ok(chosen, p.num_nodes):
        return _report(ProblemKind.MVC, False), None
    covered = all(u in chosen or v in chosen for u, v in p.edges)
    return _report(ProblemKind.MVC, covered), float(len(chosen))


# ---------------------------------------------------------------------------
# Scheduling


def pfsp_makespan(ptimes, order) -> float:
    """Makespan of a permutation flow shop: jobs in `order` flow through
    machines 0..M-1 with C[m][k] = max(C[m][k-1], C[m-1][k]) + p."""
    m = len(ptimes[0])
    completion = [0.0] * m
    for j in order:
        prev_machine = 0.0
        for i in range(m):
            start = max(completion[i], prev_machine)
            completion[i] = start + ptimes[j][i]
            prev_machine = completion[i]
    return completion[-1]


def _score_pfsp(p: SchedulingInstance, sol: JobOrder) -> Scored:
    jobs = sol.jobs
    if not (jobs and _ids_ok(jobs, p.num_jobs)):
        return _report(ProblemKind.PFSP, False), None
    perm = sorted(jobs) == list(range(p.num_jobs))
    return _report(ProblemKind.PFSP, perm), pfsp_makespan(p.ptimes, jobs)


def _op_index(p: SchedulingInstance) -> List[List[int]]:
    """op_of[j][m]: the index of job j's operation that runs on machine m."""
    op_of = [[0] * p.num_machines for _ in range(p.num_jobs)]
    for j, row in enumerate(p.machine_order):
        for i, m in enumerate(row):
            op_of[j][m] = i
    return op_of


def _start_times(
    p: SchedulingInstance, sequences: Sequence[Sequence[int]], op_of: List[List[int]]
) -> Optional[np.ndarray]:
    # Operation (j, i) is node j * M + i. Each node has at most two
    # successors: the job's next operation (node + 1, unless i is the last
    # one) and the next operation on its machine (msucc, -1 if none).
    jobs, machines = p.num_jobs, p.num_machines
    total = jobs * machines
    msucc = [-1] * total
    indeg = [0 if i == 0 else 1 for _ in range(jobs) for i in range(machines)]
    for m, seq in enumerate(sequences):
        prev = -1
        for j in seq:
            node = j * machines + op_of[j][m]
            if prev >= 0:
                msucc[prev] = node
                indeg[node] += 1
            prev = node
    duration = [float(t) for row in p.ptimes for t in row]
    earliest = [0.0] * total
    ready = [k for k in range(total) if indeg[k] == 0]
    processed = 0
    while ready:
        k = ready.pop()
        finish = earliest[k] + duration[k]
        processed += 1
        for nxt in (k + 1 if (k + 1) % machines else -1, msucc[k]):
            if nxt < 0:
                continue
            if finish > earliest[nxt]:
                earliest[nxt] = finish
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if processed != total:
        return None  # cycle between job precedence and machine sequences
    return np.array(earliest).reshape(jobs, machines)


def jssp_start_times(p: SchedulingInstance, sol: MachineSchedules) -> Optional[np.ndarray]:
    """Semi-active decode: the earliest start of every operation, as a
    (jobs, machines) array indexed [j, i] by job and operation index,
    respecting job precedence and the per-machine job sequences.

    Returns None when the combined order is cyclic (deadlock).
    """
    return _start_times(p, sol.sequences, _op_index(p))


def jssp_makespan(p: SchedulingInstance, start: np.ndarray) -> float:
    """Latest finish over all operations of a decoded schedule."""
    return float((start + np.asarray(p.ptimes, dtype=float)).max())


def _score_jssp(p: SchedulingInstance, sol: MachineSchedules) -> Scored:
    jobs, machines = p.num_jobs, p.num_machines
    seqs = sol.sequences
    all_scheduled = len(seqs) == machines and all(
        _ids_ok(seq, jobs) and sorted(seq) == list(range(jobs)) for seq in seqs
    )
    if not all_scheduled:
        # Without a full, valid sequence set the decode is undefined.
        return _report(ProblemKind.JSSP, False, False, False), None
    op_of = _op_index(p)
    start = _start_times(p, seqs, op_of)
    if start is None:
        return _report(ProblemKind.JSSP, True, False, False), None
    # The semi-active decode already enforces both, but verify outright.
    st = start.tolist()
    ptimes = p.ptimes
    no_conflict = True
    for m, seq in enumerate(seqs):
        t = -1.0
        for j in seq:
            i = op_of[j][m]
            s = st[j][i]
            if s < t - TOLERANCE:
                no_conflict = False
            t = max(t, s + ptimes[j][i])
    precedence = all(
        st[j][i] >= st[j][i - 1] + ptimes[j][i - 1] - TOLERANCE
        for j in range(jobs)
        for i in range(1, machines)
    )
    report = _report(ProblemKind.JSSP, True, no_conflict, precedence)
    return report, jssp_makespan(p, start)


_SCORERS = {
    ProblemKind.TSP: _score_tsp,
    ProblemKind.OP: _score_op,
    ProblemKind.CVRP: _score_cvrp,
    ProblemKind.MIS: _score_mis,
    ProblemKind.MVC: _score_mvc,
    ProblemKind.PFSP: _score_pfsp,
    ProblemKind.JSSP: _score_jssp,
}
