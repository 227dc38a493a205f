"""Feasibility checking and objective computation in one scoring pass.

score() checks every constraint and computes the objective value from the
same validated view of the solution, and never raises. Every id passes one
gate first (an integer in range), so a solution the report calls feasible
always has a value: feasible implies objective() succeeds. A solution that
is well-formed but infeasible still gets a value; the value is None only
when the solution cannot be scored at all (wrong type or shape, bad ids,
JSSP rows that are not permutations, or a deadlocked schedule). check() and
objective() are thin views of score(); objective() raises ValueError where
the value is None.

score() remembers its last call in one module-level slot holding the
instance, the solution and their (report, value). A call whose instance and
solution are the same objects (`is`) as the last call's returns the stored
result, so check() then objective() on one answer, as an RL loop runs them,
or solve()'s objective() then check(), scores it once. A result is stored
only when the solution's ids sit in immutable containers: a tuple (a tuple of
tuples for RouteSet and MachineSchedules) or, for the flat types, a
frozenset, which is what the parser and every heuristic build. A solution
whose ids are held in a list is scored on every call, so mutating it
between calls never returns a stale result. The slot is read and written
as one tuple each, so threads need no lock: a call that races another is at
worst a miss.

Reports are frozen, so score() hands out shared ones: every (kind,
constraint flags) report, and each kind's failed report, is built once at
import. Only an OP or CVRP report that carries its margin is built per call.
A solution whose ids sit in those immutable containers also skips the shape
gate's ABC Collection tests, which it would pass. Route lengths add
math.dist per edge in path order; math.dist runs the norm math.hypot runs
on the coordinate differences, so each edge is the same float.

JSSP answers are decoded semi-actively by one sweep over the machine
sequences, in plain Python lists read straight from the payload and the
answer; the payload keeps nothing between calls. The sweep starts every
operation at the latest finish of its job and machine predecessors, so a
schedule it decodes has no machine conflict and keeps job precedence; those
two constraints fail exactly when it deadlocks.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Collection
from dataclasses import dataclass
from itertools import chain, product
from typing import List, Mapping, Optional, Tuple

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

    def to_dict(self) -> dict:
        """The report as strict JSON: a non-finite margin (an OP without a
        budget) is None."""
        return {
            "zeta": self.zeta,
            "constraints": [[name, ok] for name, ok in self.constraints],
            "margins": [[name, v if math.isfinite(v) else None] for name, v in self.margins],
            "feasible": self.feasible,
        }


Scored = Tuple[FeasibilityReport, Optional[float]]


# Every report that carries no margin, built once: [kind][flags] for a
# passed format gate, and the failed gate's report per kind.
_REPORTS: Mapping[ProblemKind, Mapping[Tuple[bool, ...], FeasibilityReport]] = {
    kind: {
        flags: FeasibilityReport(zeta=True, constraints=tuple(zip(names, flags)))
        for flags in product((False, True), repeat=len(names))
    }
    for kind, names in CONSTRAINT_NAMES.items()
}
_FAILED_REPORTS: Mapping[ProblemKind, FeasibilityReport] = {
    kind: FeasibilityReport(zeta=False, constraints=tuple((n, False) for n in names))
    for kind, names in CONSTRAINT_NAMES.items()
}


def _report(kind: ProblemKind, *flags: bool, margins=()) -> FeasibilityReport:
    """The shared report for these bool flags, or a new one with `margins`."""
    shared = _REPORTS[kind][flags]
    if not margins:
        return shared
    return FeasibilityReport(zeta=True, constraints=shared.constraints, margins=margins)


def route_length(coords, nodes) -> float:
    """Sum of Euclidean edge lengths along a node sequence (open path):
    math.dist per edge, added in path order. For float coordinates, and
    ints below 2**53, each edge is the float math.hypot gives."""
    points = [coords[v] for v in nodes]
    total = 0.0
    for edge in map(math.dist, points, points[1:]):
        total += edge
    return total


def _is_id_collection(obj) -> bool:
    # A numpy array is no id collection: its truth value is not its length,
    # so a scorer's emptiness test would misread it.
    return isinstance(obj, Collection) and not isinstance(obj, np.ndarray)


def _shape_ok(sol: Solution) -> bool:
    """The one shape gate: the solution's one field is a collection other
    than a numpy array, and so is each of its rows for RouteSet and
    MachineSchedules. Which ids they hold is the id gate's job."""
    (ids,) = vars(sol).values()
    return _is_id_collection(ids) and (
        not isinstance(sol, (RouteSet, MachineSchedules))
        or all(_is_id_collection(r) for r in ids)
    )


def _frozen_ids(sol: Solution) -> bool:
    """The solution's ids sit in a tuple, with each row of a RouteSet or
    MachineSchedules in a tuple too, or, for the flat types, in a
    frozenset. Its score cannot change, and _shape_ok would pass it."""
    (ids,) = vars(sol).values()
    nested = isinstance(sol, (RouteSet, MachineSchedules))
    if type(ids) is frozenset:
        return not nested
    return type(ids) is tuple and (not nested or set(map(type, ids)) <= {tuple})


# The last stored call: (instance, solution, scored). See the module docstring.
_last: Tuple[object, object, Optional[Scored]] = (object(), object(), None)


def score(inst: Instance, sol: Solution) -> Scored:
    """Feasibility report and objective value of `sol`. Never raises.

    The value is None only when the solution cannot be scored; it is never
    None for a solution the report calls feasible.
    """
    global _last
    last_inst, last_sol, scored = _last
    if sol is last_sol and inst is last_inst:
        return scored
    kind = inst.kind
    if not isinstance(sol, SOLUTION_TYPE_BY_KIND[kind]):
        return _FAILED_REPORTS[kind], None
    frozen = _frozen_ids(sol)
    if not (frozen or _shape_ok(sol)):
        return _FAILED_REPORTS[kind], None
    try:
        scored = _SCORERS[kind](inst.payload, sol)
    except (TypeError, ValueError, LookupError):
        # A collection the scorer cannot index or compare: a set or mapping
        # in an ordered field, or a numpy array as an id.
        return _FAILED_REPORTS[kind], None
    if frozen:
        _last = (inst, sol, scored)
    return scored


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
        expected = SOLUTION_TYPE_BY_KIND[kind]
        if not isinstance(sol, expected):
            cause = f"{kind.value} expects {expected.__name__}, got {type(sol).__name__}"
        elif not report.zeta:
            cause = (
                f"{expected.__name__} ids must be held in collections that score "
                f"can read, got {sol!r:.80}"
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

    Parsed ids are plain ints, so one type pass over them and a min/max is
    the fast path. Anything else (numpy ints, bools, junk) goes through the
    per-element test, where the exact-type check spares most of the ~10x
    dearer ABC isinstance check."""
    if set(map(type, ids)) == {int}:
        return min(ids) >= 0 and max(ids) < n
    return all(
        (type(v) is int or isinstance(v, numbers.Integral)) and 0 <= v < n for v in ids
    )


# ---------------------------------------------------------------------------
# Routing


def _score_tsp(p: RoutingInstance, sol: Route) -> Scored:
    nodes = sol.nodes
    ids_ok = _ids_ok(nodes, p.n)
    closed = len(nodes) >= 2 and bool(nodes[0] == nodes[-1])
    body = nodes[:-1] if closed else nodes
    # With every id in range, n distinct ids are exactly the n nodes.
    visits_once = ids_ok and len(body) == p.n and len(set(body)) == p.n
    value = route_length(p.coords, nodes) if ids_ok and nodes else None
    return _report(ProblemKind.TSP, visits_once, closed), value


def _score_op(p: RoutingInstance, sol: Route) -> Scored:
    nodes = sol.nodes
    starts = bool(nodes) and bool(nodes[0] == 0)
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
    # Node 0 is the depot, here and in every solver and prompt.
    routes = [r for r in sol.routes if len(r) > 0]
    nonempty = [r for r in routes if any(v != 0 for v in r)]
    endpoints_ok = bool(routes) and all(
        len(r) >= 2 and r[0] == 0 and r[-1] == 0 for r in nonempty
    )
    if not all(_ids_ok(r, p.n) for r in routes):
        return _report(ProblemKind.CVRP, endpoints_ok, False, False), None

    visits = [v for r in routes for v in r if v != 0]
    # With every id in range, n - 1 distinct non-depot ids are the customers.
    exactly_once = len(visits) == p.n - 1 and len(set(visits)) == p.n - 1
    loads = [sum(p.demands[v] for v in r if v != 0) for r in nonempty]
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
        row = ptimes[j]
        prev = 0.0
        for i in range(m):
            c = completion[i]
            prev = completion[i] = (c if c > prev else prev) + row[i]
    return completion[-1]


def _score_pfsp(p: SchedulingInstance, sol: JobOrder) -> Scored:
    jobs = sol.jobs
    if not (jobs and _ids_ok(jobs, p.num_jobs)):
        return _report(ProblemKind.PFSP, False), None
    perm = sorted(jobs) == list(range(p.num_jobs))
    return _report(ProblemKind.PFSP, perm), pfsp_makespan(p.ptimes, jobs)


def jssp_decode(
    p: SchedulingInstance, sequences
) -> Optional[Tuple[List[List[float]], float]]:
    """Semi-active decode of per-machine job sequences: (starts, makespan),
    where starts[j][i] is the earliest start of job j's i-th operation and
    the makespan is the largest job finish. `sequences` must hold one
    permutation of the jobs per machine, as score() checks first; for
    anything else the result is undefined.

    One sweep keeps a worklist of machines, a pointer into each machine's
    sequence and each job's next operation. A machine runs the job at its
    pointer once that job's next operation is on it, at max(job free,
    machine free), and a job that moves on wakes the machine it goes to.
    Returns None when the worklist empties with a job left unrun: the
    combined order is cyclic (deadlock).
    """
    ptimes, order = p.ptimes, p.machine_order
    jobs, machines = len(ptimes), len(ptimes[0])
    starts = [[0.0] * machines for _ in ptimes]
    job_free = [0.0] * jobs
    next_op = [0] * jobs
    machine_free = [0.0] * machines
    ptr = [0] * machines
    work = list(range(machines))
    while work:
        m = work.pop()
        seq = sequences[m]
        k, free = ptr[m], machine_free[m]
        while k < jobs:
            j = seq[k]
            i = next_op[j]
            if order[j][i] != m:
                break  # job j reaches machine m later and wakes it then
            start = job_free[j]
            if free > start:
                start = free
            starts[j][i] = start
            free = job_free[j] = start + ptimes[j][i]
            k += 1
            i += 1
            next_op[j] = i
            if i < machines:
                nxt = order[j][i]
                if sequences[nxt][ptr[nxt]] == j:
                    work.append(nxt)
        ptr[m], machine_free[m] = k, free
    if min(ptr) < jobs:
        return None
    return starts, max(job_free)


def jssp_start_times(p: SchedulingInstance, sol: MachineSchedules) -> Optional[np.ndarray]:
    """jssp_decode's start times as a (jobs, machines) array indexed [j, i]
    by job and operation index, or None on a deadlock."""
    decoded = jssp_decode(p, sol.sequences)
    return None if decoded is None else np.array(decoded[0])


def _all_permutations(rows, n: int) -> bool:
    """Every row is a permutation of range(n). One type pass over all rows
    sends plain ints straight to the sort; other rows pass the id gate
    first, so a sort never compares junk."""
    target = list(range(n))
    if set(map(type, chain.from_iterable(rows))) == {int}:
        return all(sorted(row) == target for row in rows)
    return all(_ids_ok(row, n) and sorted(row) == target for row in rows)


def _score_jssp(p: SchedulingInstance, sol: MachineSchedules) -> Scored:
    seqs = sol.sequences
    if not (len(seqs) == p.num_machines and _all_permutations(seqs, p.num_jobs)):
        # Without a full, valid sequence set the decode is undefined.
        return _report(ProblemKind.JSSP, False, False, False), None
    if not set(map(type, seqs)) <= {tuple, list} and any(isinstance(r, Mapping) for r in seqs):
        # A mapping's keys pass the gate, but the sweep would read its values.
        return _FAILED_REPORTS[ProblemKind.JSSP], None
    decoded = jssp_decode(p, seqs)
    if decoded is None:
        return _report(ProblemKind.JSSP, True, False, False), None
    # The decode starts each operation at or after the finish of both its
    # predecessors, so no conflict or precedence violation can remain.
    return _report(ProblemKind.JSSP, True, True, True), decoded[1]


_SCORERS = {
    ProblemKind.TSP: _score_tsp,
    ProblemKind.OP: _score_op,
    ProblemKind.CVRP: _score_cvrp,
    ProblemKind.MIS: _score_mis,
    ProblemKind.MVC: _score_mvc,
    ProblemKind.PFSP: _score_pfsp,
    ProblemKind.JSSP: _score_jssp,
}
