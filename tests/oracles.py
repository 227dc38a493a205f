"""Independent reference implementations used only by tests.

Everything here is deliberately written without the package's own helpers:
pure Python data structures, math.dist instead of numpy, pointer-based event
simulation instead of graph decodes, exact Fraction arithmetic for the policy
math. Agreement between these and the package is the point of the tests.
The group arithmetic also has its numpy formulation here, which the
package's plain-Python floats must equal bit for bit, and the ACO step keeps
its earlier per-step form here (one roulette call and one draw per step),
which the package's leaner step must equal draw for draw. The prompt input
keeps its per-entity renderer here, whose bytes the package's one-call
templates must equal; only the instruction text and the prompt wrapper are
the package's own. The greedy graph heuristics, NEH and JSSP dispatch keep
their rescan forms here, which the package's incremental forms must equal,
and the JSSP decode keeps its Kahn walk over numpy tables, whose start
times and makespans the package's list sweep must equal bit for bit. The
solution shape keeps the two gates and the JSSP scorer's own mapping rule
that score() ran before one gate took their place.
"""

import ast
import importlib
import math
import re
import statistics
from collections import namedtuple
from collections.abc import Collection, Mapping
from fractions import Fraction

import numpy as np

from cobench import verify
from cobench.problems.types import (
    SOLUTION_TYPE_BY_KIND,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    VertexSet,
)
from cobench.tai.render import PROMPT_TEMPLATE
from cobench.tai.types import ParsedSolution

TOL = 1e-6


# ---------------------------------------------------------------------------
# Objectives


def tour_length(coords, nodes):
    return sum(math.dist(coords[a], coords[b]) for a, b in zip(nodes, nodes[1:]))


def prize_sum(prizes, nodes):
    return float(sum(prizes[v] for v in set(nodes)))


def pfsp_makespan_dag(ptimes, order):
    """Makespan as the longest path in the position/machine grid DAG.

    Node (k, i) is job order[k] on machine i, and the source feeds (0, 0).
    Every edge ends at a later node in row-major order, so relaxing the
    nodes in that order is a topological pass."""
    m = len(ptimes[0])
    into = {(0, 0): [(("s",), ptimes[order[0]][0])]}
    for k, job in enumerate(order):
        for i in range(m):
            if i + 1 < m:
                into.setdefault((k, i + 1), []).append(((k, i), ptimes[job][i + 1]))
            if k + 1 < len(order):
                into.setdefault((k + 1, i), []).append(((k, i), ptimes[order[k + 1]][i]))
    longest = {("s",): 0}
    for k in range(len(order)):
        for i in range(m):
            longest[(k, i)] = max(longest[u] + w for u, w in into[(k, i)])
    return float(max(longest.values()))


def jssp_sim(payload, sequences):
    """Event simulation of per-machine job sequences.

    Returns the makespan, or None when the sequences deadlock. Each pass
    starts every operation whose job predecessor is finished and whose
    machine has reached it in sequence; no progress means a cycle.
    """
    jobs, machines = payload.num_jobs, payload.num_machines
    next_op = [0] * jobs
    mptr = [0] * machines
    machine_free = [0.0] * machines
    job_free = [0.0] * jobs
    scheduled = 0
    while scheduled < jobs * machines:
        progressed = False
        for m in range(machines):
            if mptr[m] >= jobs:
                continue
            j = sequences[m][mptr[m]]
            k = next_op[j]
            if k >= machines or payload.machine_order[j][k] != m:
                continue
            begin = max(machine_free[m], job_free[j])
            end = begin + payload.ptimes[j][k]
            machine_free[m] = end
            job_free[j] = end
            mptr[m] += 1
            next_op[j] += 1
            scheduled += 1
            progressed = True
        if not progressed:
            return None
    return max(machine_free)


def jssp_kahn_start_times(payload, sequences):
    """The semi-active decode as Kahn's walk over the operation graph, from
    numpy tables: the (jobs, machines) start times, or None on a deadlock.

    Operation (j, i) is node j * M + i. Each node has at most two
    successors: the job's next operation (node + 1, unless it is the job's
    last) and the next operation on its machine (msucc, -1 if none). Every
    node starts at the latest finish of its predecessors, taken by `>` from
    0.0. The walk stops with some in-degree above zero on a cycle."""
    jobs, machines = payload.num_jobs, payload.num_machines
    base = np.arange(jobs)[:, None] * machines
    op_flat = np.empty(jobs * machines, dtype=np.intp)
    op_flat[(base + np.asarray(payload.machine_order, dtype=np.intp)).ravel()] = (
        base + np.arange(machines)
    ).ravel()
    duration = np.asarray(payload.ptimes, dtype=float).ravel().tolist()
    indeg = np.ones((jobs, machines), dtype=np.intp)
    indeg[:, 0] = 0
    indeg = indeg.ravel()
    # nodes[m, k]: the node of the k-th job in machine m's sequence.
    seqs = np.asarray(sequences, dtype=np.intp)
    nodes = op_flat[seqs * machines + np.arange(machines)[:, None]]
    total = len(duration)
    msucc = np.full(total, -1, dtype=np.intp)
    msucc[nodes[:, :-1]] = nodes[:, 1:]
    indeg[nodes[:, 1:]] += 1  # every node appears once in `nodes`
    ready = np.flatnonzero(indeg == 0).tolist()
    msucc, indeg = msucc.tolist(), indeg.tolist()
    earliest = [0.0] * total
    while ready:
        k = ready.pop()
        finish = earliest[k] + duration[k]
        for nxt in (k + 1 if (k + 1) % machines else -1, msucc[k]):
            if nxt >= 0:
                if finish > earliest[nxt]:
                    earliest[nxt] = finish
                indeg[nxt] -= 1
                if not indeg[nxt]:
                    ready.append(nxt)
    if any(indeg):
        return None
    return np.array(earliest).reshape(jobs, machines)


def jssp_kahn_makespan(payload, start):
    """Latest finish over all operations of a decoded schedule."""
    return float((start + np.asarray(payload.ptimes, dtype=float)).max())


# ---------------------------------------------------------------------------
# Feasibility (single boolean per kind, mirroring the documented rules)


def tsp_feasible(payload, sol):
    nodes = list(sol.nodes)
    n = payload.n
    if len(nodes) < 2 or nodes[0] != nodes[-1]:
        return False
    return sorted(nodes[:-1]) == list(range(n))


def op_feasible(payload, sol):
    nodes = list(sol.nodes)
    n = payload.n
    if not nodes or nodes[0] != 0:  # node 0 is the depot
        return False
    if any(not isinstance(v, int) or not (0 <= v < n) for v in nodes):
        return False
    core = nodes[:-1] if len(nodes) >= 2 and nodes[-1] == nodes[0] else nodes
    if len(set(core)) != len(core):
        return False
    return tour_length(payload.coords, nodes) <= payload.distance_limit + TOL


def cvrp_feasible(payload, sol):
    n = payload.n
    routes = [list(r) for r in sol.routes if len(r) > 0]
    if not routes:
        return False
    for r in routes:
        if any(not isinstance(v, int) or not (0 <= v < n) for v in r):
            return False
    serving = [r for r in routes if any(v != 0 for v in r)]
    for r in serving:
        if len(r) < 2 or r[0] != 0 or r[-1] != 0:
            return False
        if sum(payload.demands[v] for v in r if v != 0) > payload.capacity + TOL:
            return False
    seen = sorted(v for r in routes for v in r if v != 0)
    return seen == sorted(set(range(1, n)))


def mis_feasible(payload, sol):
    chosen = set(sol.vertices)
    if any(not (0 <= v < payload.num_nodes) for v in chosen):
        return False
    return all(not (u in chosen and v in chosen) for u, v in payload.edges)


def mvc_feasible(payload, sol):
    chosen = set(sol.vertices)
    if any(not (0 <= v < payload.num_nodes) for v in chosen):
        return False
    return all(u in chosen or v in chosen for u, v in payload.edges)


def pfsp_feasible(payload, sol):
    return sorted(sol.jobs) == list(range(payload.num_jobs))


def jssp_feasible(payload, sol):
    seqs = [list(s) for s in sol.sequences]
    if len(seqs) != payload.num_machines:
        return False
    if any(sorted(s) != list(range(payload.num_jobs)) for s in seqs):
        return False
    return jssp_sim(payload, seqs) is not None


_FEASIBLE = {
    ProblemKind.TSP: tsp_feasible,
    ProblemKind.OP: op_feasible,
    ProblemKind.CVRP: cvrp_feasible,
    ProblemKind.MIS: mis_feasible,
    ProblemKind.MVC: mvc_feasible,
    ProblemKind.PFSP: pfsp_feasible,
    ProblemKind.JSSP: jssp_feasible,
}


def feasible(inst, sol):
    return _FEASIBLE[inst.kind](inst.payload, sol)


def objective_value(inst, sol):
    """Independent objective recomputation for feasible solutions."""
    kind = inst.kind
    p = inst.payload
    if kind is ProblemKind.TSP:
        return tour_length(p.coords, sol.nodes)
    if kind is ProblemKind.OP:
        return prize_sum(p.prizes, sol.nodes)
    if kind is ProblemKind.CVRP:
        return sum(tour_length(p.coords, r) for r in sol.routes)
    if kind in (ProblemKind.MIS, ProblemKind.MVC):
        return float(len(sol.vertices))
    if kind is ProblemKind.PFSP:
        return pfsp_makespan_dag(p.ptimes, sol.jobs)
    return jssp_sim(p, [list(s) for s in sol.sequences])


# ---------------------------------------------------------------------------
# Routing features


def nearest_neighbours(coords, k):
    """Per node, its k nearest other nodes as (id, distance) pairs, ascending
    distance, ties to the lower id."""
    out = []
    for i, a in enumerate(coords):
        ranked = sorted((math.dist(a, b), j) for j, b in enumerate(coords) if j != i)
        out.append(tuple((j, d) for d, j in ranked[:k]))
    return tuple(out)


def candidate_lists(d, size):
    """ACO's candidate lists by a stable argsort of distance matrix `d`:
    each node's `size` nearest other nodes, distance ties to the lower id,
    in ascending id order, an (n, min(size, n - 1)) array."""
    far = d.copy()
    np.fill_diagonal(far, np.inf)
    return np.sort(np.argsort(far, axis=1, kind="stable")[:, : min(size, len(d) - 1)], axis=1)


# ---------------------------------------------------------------------------
# Routing heuristics


def op_greedy(d, prizes, budget):
    """The OP greedy walk: from the depot, step to the unvisited node with
    the best prize/distance ratio that fits in the budget, lower id on ties.
    `d` is the distance matrix as nested lists."""
    route, length = [0], 0.0
    while True:
        best = None  # (ratio, -node) maximized
        for v in range(len(d)):
            step = d[route[-1]][v]
            if v in route or length + step > budget + 1e-9:
                continue
            key = (prizes[v] / max(step, 1e-12), -v)
            if best is None or key > best[0]:
                best = (key, v, step)
        if best is None:
            return route
        _, v, step = best
        route.append(v)
        length += step


def op_greedy_insertion(d, prizes, budget):
    """The OP greedy insertion as a scan of every (node, position) pair per
    step. `d` is the distance matrix as nested lists, so each delta and ratio
    is the same float operation the package performs."""
    route, length = [0], 0.0
    while True:
        best = None  # (ratio, -node, -pos) maximized
        for v in range(len(d)):
            if v in route:
                continue
            for pos in range(len(route)):
                if pos < len(route) - 1:
                    a, b = route[pos], route[pos + 1]
                    delta = d[a][v] + d[v][b] - d[a][b]
                else:
                    delta = d[route[-1]][v]
                if length + delta > budget + 1e-9:
                    continue
                key = (prizes[v] / max(delta, 1e-12), -v, -pos)
                if best is None or key > best[0]:
                    best = (key, v, pos, delta)
        if best is None:
            return route
        _, v, pos, delta = best
        route.insert(pos + 1, v)
        length += delta


# ---------------------------------------------------------------------------
# Graph and scheduling heuristics in their rescan form: every step recounts
# degrees over the remaining graph, decodes every trial order in full, or
# rebuilds every job's earliest start. The package's incremental forms must
# return the same solutions.


def mis_greedy(p):
    """Take the remaining vertex with the fewest remaining neighbours, lower
    id on ties, and delete it and its neighbours; the chosen ids in order."""
    adj = [set() for _ in range(p.num_nodes)]
    for u, v in p.edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(p.num_nodes))
    chosen = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        chosen.append(v)
        alive -= (adj[v] & alive) | {v}
    return chosen


def mvc_greedy(p):
    """Add the vertex on the most uncovered edges, lower id on ties, until
    every edge is covered; the cover's ids in order."""
    cover = []
    remaining = set(p.edges)
    while remaining:
        counts = {}
        for u, v in remaining:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda u: (-counts[u], u))
        cover.append(v)
        remaining = {e for e in remaining if v not in e}
    return cover


def neh(ptimes):
    """NEH with every trial insertion decoded in full by pfsp_makespan_dag:
    jobs by decreasing total work, lower id on ties, each at the position of
    least partial makespan, the earliest on ties."""
    ranked = sorted(range(len(ptimes)), key=lambda j: (-sum(ptimes[j]), j))
    order = []
    for j in ranked:
        best_pos, best_mk = 0, math.inf
        for pos in range(len(order) + 1):
            mk = pfsp_makespan_dag(ptimes, order[:pos] + [j] + order[pos:])
            if mk < best_mk - 1e-12:
                best_mk, best_pos = mk, pos
        order.insert(best_pos, j)
    return order


def dispatch(p, rule):
    """Non-delay dispatch that rebuilds every job's earliest start at every
    step: the least (start, machine) picks the machine, and the rule key
    picks among the jobs that can start there then, lower job on ties."""
    jobs, machines = len(p.ptimes), len(p.ptimes[0])
    t_job, t_mach, next_op = [0] * jobs, [0] * machines, [0] * jobs
    sequences = [[] for _ in range(machines)]
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
    return sequences


# ---------------------------------------------------------------------------
# Policy math in exact arithmetic


def grpo_surrogate_exact(ratios, advantages, kl, eps="0.1", beta="0.05"):
    eps = Fraction(eps)
    beta = Fraction(beta)
    terms = []
    for r, a in zip(ratios, advantages):
        r = Fraction(r)
        a = Fraction(a)
        clipped = min(max(r, 1 - eps), 1 + eps)
        terms.append(min(r * a, clipped * a))
    return sum(terms) / len(terms) - beta * Fraction(kl)


def group_advantages_numpy(rewards):
    arr = np.asarray(rewards, dtype=float)
    std = float(arr.std())
    if std < 1e-8:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std


def grpo_surrogate_numpy(ratios, advantages, kl, eps=0.1, beta=0.05):
    r = np.asarray(ratios, dtype=float)
    a = np.asarray(advantages, dtype=float)
    term = np.minimum(r * a, np.clip(r, 1.0 - eps, 1.0 + eps) * a)
    return float(term.mean() - beta * kl)


def group_advantages_ref(rewards):
    mu = statistics.fmean(rewards)
    sigma = statistics.pstdev(rewards)
    if sigma < 1e-8:
        return [0.0 for _ in rewards]
    return [(r - mu) / sigma for r in rewards]


# ---------------------------------------------------------------------------
# Prompt encoding: the per-entity renderer, one f-string per node, neighbour,
# edge, machine and job, whose bytes the package's one-call templates must
# equal. Hints come from per-node sorts: distances as sqrt(dx*dx + dy*dy),
# the package's float formula, and degrees from each node's own adjacency.


def euclid_neighbours(coords, k):
    """Per node, its k nearest other nodes as (id, distance) pairs, each
    distance math.sqrt(dx * dx + dy * dy), ascending, ties to the lower id."""
    pts = [(float(x), float(y)) for x, y in coords]
    out = []
    for i, (xi, yi) in enumerate(pts):
        ranked = sorted(
            (math.sqrt((xi - xj) * (xi - xj) + (yi - yj) * (yi - yj)), j)
            for j, (xj, yj) in enumerate(pts)
            if j != i
        )
        out.append(tuple((j, d) for d, j in ranked[:k]))
    return tuple(out)


def degree_hints(payload, k):
    """Per node, its k neighbours of largest degree, ties to the lower id."""
    adj = [[] for _ in range(payload.num_nodes)]
    for u, v in payload.edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    return tuple(
        tuple((j, float(deg[j])) for j in sorted(a, key=lambda j: (-deg[j], j))[:k])
        for a in adj
    )


def lowest_hints(rows, k):
    """Per row, its k (index, value) pairs of lowest value, ties to the lower index."""
    return tuple(
        tuple((i, float(row[i])) for i in sorted(range(len(row)), key=lambda i: (row[i], i))[:k])
        for row in rows
    )


def _fmt_coord(v):
    f = float(v)
    return str(int(f)) if f.is_integer() else f"{f:g}"


def _routing_input(kind, p, k):
    parts = []
    for i, ((x, y), entry) in enumerate(zip(p.coords, euclid_neighbours(p.coords, k))):
        extra = ""
        if kind is ProblemKind.OP:
            extra = f", prize: {p.prizes[i]}"
        elif kind is ProblemKind.CVRP:
            extra = f", demand: {p.demands[i]}"
        neighbors = ", ".join(f"{j}: {d:.1f}" for j, d in entry)
        parts.append(
            f"Node {i}, coordinates: [{_fmt_coord(x)}, {_fmt_coord(y)}]{extra}, "
            f"neighbors: [{neighbors}]"
        )
    return "; ".join(parts)


def _graph_input(p, k):
    edges = ",".join(f"({u},{v})" for u, v in p.edges)
    nodes = []
    for i, entry in enumerate(degree_hints(p, k)):
        ids = ",".join(str(j) for j, _ in entry)
        degs = ",".join(f"#{int(d)}" for _, d in entry)
        inner = f"{ids},{degs}" if entry else ""
        nodes.append(f"N{i}:[{inner}]")
    return f"Edges: [{edges}]\n\n" + "; ".join(nodes)


def _pfsp_input(p, k):
    parts = []
    for m, entry in enumerate(lowest_hints(tuple(zip(*p.ptimes)), k)):
        times = ", ".join(str(p.ptimes[j][m]) for j in range(p.num_jobs))
        lowest = ", ".join(f"{j + 1}: {int(t)}" for j, t in entry)
        parts.append(
            f"Machine {m}, processing times: [{times}], "
            f"jobs with lowest processing time: [{lowest}]"
        )
    return "; ".join(parts)


def _jssp_input(p, k):
    parts = []
    for j, entry in enumerate(lowest_hints(p.ptimes, k)):
        ops = ", ".join(
            f"({p.machine_order[j][i]}, {p.ptimes[j][i]})" for i in range(p.num_machines)
        )
        lowest = ", ".join(f"{i}: ({p.machine_order[j][i]}, {int(t)})" for i, t in entry)
        parts.append(
            f"Job {j}, machines and processing times for operations: [{ops}], "
            f"operators with lowest processing time: [{lowest}]"
        )
    return "; ".join(parts)


def reference_input(inst, k):
    """The prompt's input section, one entity at a time."""
    p = inst.payload
    if inst.kind in (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP):
        return _routing_input(inst.kind, p, k)
    if inst.kind in (ProblemKind.MIS, ProblemKind.MVC):
        return _graph_input(p, k)
    return (_pfsp_input if inst.kind is ProblemKind.PFSP else _jssp_input)(p, k)


def reference_prompt(inst, k):
    """The whole prompt: the package's instruction text for the kind, with
    its fields filled here, and the input from `reference_input`."""
    text = importlib.import_module("cobench.tai.encode")
    p = inst.payload
    if inst.kind in (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP):
        fields = dict(n=p.n, customers=p.n - 1, capacity=p.capacity)
        if inst.kind is ProblemKind.OP:
            limit = p.distance_limit
            budget = text._OP_NO_BUDGET if limit == math.inf else text._OP_BUDGET.format(limit)
            fields["budget"] = budget
    elif inst.kind in (ProblemKind.MIS, ProblemKind.MVC):
        fields = dict(n=p.num_nodes, last=p.num_nodes - 1)
    else:
        # The PFSP prompt numbers jobs 1 to J, as its hints do.
        fields = dict(jobs=p.num_jobs, machines=p.num_machines, first=1, last=p.num_jobs)
    instruction = text._INSTRUCTIONS[inst.kind].format(k=k, **fields)
    return PROMPT_TEMPLATE.format(instruction, reference_input(inst, k))


# ---------------------------------------------------------------------------
# Answer parsing: every payload through ast.literal_eval, brackets matched
# one character at a time


_ANSWER_LABELS = {
    ProblemKind.TSP: ("Route", "Routes"),
    ProblemKind.OP: ("Route", "Routes"),
    ProblemKind.CVRP: ("Routes", "Route"),
    ProblemKind.MIS: ("Set",),
    ProblemKind.MVC: ("Set",),
    ProblemKind.PFSP: ("Order",),
    ProblemKind.JSSP: ("Schedule",),
}


def _bracketed(text, start):
    i = start
    while i < len(text) and text[i] in " \t\r\n*_`":
        i += 1
    if i >= len(text) or text[i] != "[":
        return None
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "[":
            depth += 1
        elif text[j] == "]":
            depth -= 1
            if depth == 0:
                return text[i : j + 1], j + 1
    return None


def _ints(obj):
    if not isinstance(obj, (list, tuple)) or not obj:
        return None
    if any(isinstance(v, bool) or not isinstance(v, int) for v in obj):
        return None
    return tuple(obj)


def _int_rows(obj):
    if not isinstance(obj, (list, tuple)) or not obj:
        return None
    rows = [_ints(r) for r in obj]
    return None if any(r is None for r in rows) else tuple(rows)


def _solution(kind, obj):
    if kind in (ProblemKind.TSP, ProblemKind.OP):
        flat = _ints(obj)
        return None if flat is None else Route(flat)
    if kind is ProblemKind.CVRP:
        rows = _int_rows(obj)
        if rows is not None:
            return RouteSet(rows)
        flat = _ints(obj)
        return None if flat is None else RouteSet((flat,))
    if kind in (ProblemKind.MIS, ProblemKind.MVC):
        if isinstance(obj, (list, tuple)) and not obj:
            return VertexSet(frozenset())
        flat = _ints(obj)
        return None if flat is None else VertexSet(frozenset(flat))
    if kind is ProblemKind.PFSP:
        flat = _ints(obj)
        return None if flat is None else JobOrder(tuple(j - 1 for j in flat))
    rows = _int_rows(obj)
    return None if rows is None else MachineSchedules(rows)


def reference_parse(text, kind):
    """The answer parser on ast.literal_eval alone: the LAST label whose
    bracketed payload ast.literal_eval reads as the kind's shape. A payload
    literal_eval cannot read (an unhashable dict key included) passes to the
    label before it."""
    failed = ParsedSolution(solution=None, stated_objective=None)
    if not isinstance(text, str) or not text:
        return failed
    label = re.compile(
        "(?:" + "|".join(_ANSWER_LABELS[kind]) + r")\s*\**\s*[:=]", re.IGNORECASE
    )
    try:
        for m in reversed(list(label.finditer(text))):
            scanned = _bracketed(text, m.end())
            if scanned is None:
                continue
            try:
                sol = _solution(kind, ast.literal_eval(scanned[0]))
            except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
                continue
            if sol is None:
                continue
            stated = re.compile(
                r"objective\s*\**\s*[:=]\s*\**\s*(-?\d+(?:\.\d+)?)", re.IGNORECASE
            ).search(text, scanned[1])
            return ParsedSolution(
                solution=sol,
                stated_objective=float(stated.group(1)) if stated else None,
            )
    except Exception:
        pass
    return failed


# ---------------------------------------------------------------------------
# The ACO step in its per-step form: the masked-rollout kernel, roulette, the
# candidate-list chooser and the whole-row chooser OP and CVRP used before
# they chose from lists. Every draw and float of the package's step must match.


WalksRef = namedtuple("WalksRef", "paths length load")


def rollout_ref(d, ants, choose, feasible=None, gain=None, reload=False):
    """The walks as `rollout` returns them, with a length summed on every step."""
    n = d.shape[0]
    steps = 2 * n + 2 if reload else n - 1
    rows = np.arange(ants)
    cur = np.zeros(ants, dtype=np.intp)
    unvisited = np.ones((ants, n), dtype=bool)
    unvisited[:, 0] = False
    length = np.zeros(ants)
    load = np.zeros(ants)
    walking = np.ones(ants, dtype=bool)
    paths = np.full((ants, steps + 1), -1, dtype=np.int32)
    paths[:, 0] = 0
    for s in range(1, steps + 1):
        if feasible is None:
            nxt = choose(cur, unvisited)
            paths[:, s] = nxt
        else:
            if not walking.any():
                break
            mask = feasible(cur, unvisited, length, load)
            moving = walking & mask.any(axis=1)
            nxt = np.where(moving, choose(cur, mask), cur) if moving.any() else cur
            if gain is not None:
                load = np.where(moving, load + gain[nxt], load)
            if not reload:
                walking = moving
            else:
                stuck = walking & ~moving
                if stuck.any():
                    nxt = np.where(stuck, 0, nxt)
                    load = np.where(stuck, 0.0, load)
                    walking = walking & (unvisited.any(axis=1) | ~stuck)
                    moving = moving | stuck
            paths[:, s] = np.where(moving, nxt, -1)
        length = length + d[cur, nxt]
        unvisited[rows, nxt] = False
        cur = nxt
    return WalksRef(paths, length, load)


def roulette_ref(weights, feasible, rng):
    cum = weights.cumsum(axis=1)
    u = np.maximum(rng.random((len(cum), 1)), 1e-16)
    x = u * cum[:, -1:]
    dead = x[:, 0] <= 0.0
    if dead.any():
        cum[dead] = feasible[dead].cumsum(axis=1)
        x[dead] = u[dead] * cum[dead, -1:]
    return np.argmax(cum >= x, axis=1)


def candidate_chooser_ref(ci, near, offsets, rng, steps=None):
    """The chooser with one roulette_ref draw per step, whatever `steps` says;
    `offsets` only fixes the number of ants."""
    rows = np.arange(len(offsets) // len(near))
    near_ci = np.take_along_axis(ci, near, axis=1)

    def choose(cur, mask):
        cand = near[cur]
        open_ = mask[rows[:, None], cand]
        nxt = cand[rows, roulette_ref(near_ci[cur] * open_, open_, rng)]
        drawn = mask[rows, nxt]
        if not drawn.all():
            stuck = np.flatnonzero(~drawn)
            left = np.where(mask[stuck], ci[cur[stuck]], -1.0)
            nxt[stuck] = left.argmax(axis=1)
        return nxt

    return choose


def masked_chooser_ref(ci, rng):
    return lambda cur, mask: roulette_ref(ci[cur] * mask, mask, rng)


# ---------------------------------------------------------------------------
# Solution shape: _shape_ok and _frozen_ids, which score() ran one after the
# other, and the JSSP scorer's refusal of a mapping row, which it applied
# only once the rows had passed the permutation test.


def _is_id_collection(obj):
    return isinstance(obj, Collection) and not isinstance(obj, np.ndarray)


def shape_ok(sol):
    (ids,) = vars(sol).values()
    return _is_id_collection(ids) and (
        not isinstance(sol, (RouteSet, MachineSchedules))
        or all(_is_id_collection(r) for r in ids)
    )


def frozen_ids(sol):
    (ids,) = vars(sol).values()
    nested = isinstance(sol, (RouteSet, MachineSchedules))
    if type(ids) is frozenset:
        return not nested
    return type(ids) is tuple and (not nested or set(map(type, ids)) <= {tuple})


def refused_mapping_row(payload, sol):
    """The JSSP scorer's rule: a MachineSchedules whose rows pass the
    permutation test is not scored if one of them is a mapping. Rows the
    test cannot read made the scorer raise, so it never reached the rule."""
    seqs = sol.sequences
    if not any(isinstance(r, Mapping) for r in seqs):
        return False
    try:
        return len(seqs) == payload.num_machines and verify._all_permutations(
            seqs, payload.num_jobs, False
        )
    except (TypeError, ValueError, LookupError):
        return False


def reference_shape_gate(inst, sol):
    """The old gates' answer for a solution of the kind's type: None when
    not scored, else whether score() stored the result."""
    if frozen_ids(sol):
        return True
    if not shape_ok(sol):
        return None
    if isinstance(sol, MachineSchedules) and refused_mapping_row(inst.payload, sol):
        return None
    return False


def reference_score(inst, sol):
    """score() before the one shape gate, with no stored result and no
    proof of exact ints: every id gate runs its own type pass."""
    failed = verify._FAILED_REPORTS[inst.kind], None
    if not isinstance(sol, SOLUTION_TYPE_BY_KIND[inst.kind]):
        return failed
    if reference_shape_gate(inst, sol) is None:
        return failed
    try:
        return verify._SCORERS[inst.kind](inst.payload, sol, False)
    except (TypeError, ValueError, LookupError):
        return failed
