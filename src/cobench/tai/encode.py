"""Instance -> text encoding.

The instruction states the problem, constraints, and required answer format;
the input lists per-entity data plus heuristic hints (nearest neighbors,
high-degree neighbors, shortest processing times). Numbers render as plain
integers where the data is integral and distances at one decimal.
"""

from __future__ import annotations

from ..problems.types import (
    GraphInstance,
    Instance,
    ProblemKind,
    RoutingInstance,
    SchedulingInstance,
)
from .features import DEFAULT_K, compute_features
from .types import GRAMMAR_BY_KIND, HeuristicFeatures, TextAttributedInstance


def _fmt_coord(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else f"{f:g}"


def _neighbor_list(feats: HeuristicFeatures, i: int) -> str:
    return ", ".join(f"{j}: {d:.1f}" for j, d in feats.entries[i])


def _tsp_instruction(n: int, k: int) -> str:
    return (
        f"Solve the Traveling Salesman Problem (TSP) for the given list of {n} cities. "
        "Each city is represented as a node with coordinates (x, y). Identify the "
        "shortest route that visits every city exactly once and returns to the starting "
        f"city. The input includes city coordinates, the {k} nearest neighbors for each "
        "city, and their respective distances. Provide the solution in the following "
        "format: 1. Route: List the nodes in the order they are visited. 2. Objective: "
        "The objective value (total travel distance)."
    )


def _op_instruction(n: int, k: int, limit: float) -> str:
    return (
        f"Solve the Orienteering Problem with {n} nodes. Each node has (x, y) "
        "coordinates and a prize for visiting it. You must plan a route that starts at "
        "depot 0, collecting the maximum total prize possible, subject to a maximum "
        f"route length T = {limit:.1f}. You may visit a subset of nodes, but the total "
        f"distance traveled must not exceed T. The input includes city coordinates, the "
        f"{k} nearest neighbors for each city, and their respective distances. Provide "
        "the solution in the following format: 1. Route: The ordered list of visited "
        "nodes. 2. Objective: The objective value (summation of the collecting prizes)."
    )


def _cvrp_instruction(customers: int, k: int, capacity: int) -> str:
    return (
        f"Solve the Capacitated Vehicle Routing Problem (CVRP) with {customers} "
        "customers and 1 depot (node 0). Each customer node has a demand. All vehicles "
        f"have the same capacity of {capacity}. You must assign each customer to "
        "exactly one route and ensure that the sum of demands on each route does not "
        "exceed the vehicle capacity. Minimize the total distance traveled. The input "
        f"includes city coordinates, the {k} nearest neighbors for each city, and their "
        "respective distances. Provide the solution in the following format: 1. Route: "
        "A list of routes, each route as an ordered list of visited nodes (start/end "
        "at the depot). 2. Objective: The total distance of all routes."
    )


def _mis_instruction(n: int, k: int) -> str:
    return (
        f"Given an undirected graph with {n} nodes (0..{n - 1}) and edges specified "
        f"below. For each node, we also provide up to {k} neighbors connected to it. "
        "Find a maximum independent set: the largest set of vertices where no two "
        "vertices share an edge. The input includes the edges of the graph and the "
        f"top-{k} neighbors for each node in the format N[a,b,#c,#d], where a and b "
        f"are the top-{k} neighbors, #c is the degree of a, and #d is the degree of b. "
        "Output format: 1. Set: The list of vertices in the maximum independent set. "
        "2. Objective: The size of that set."
    )


def _mvc_instruction(n: int, k: int) -> str:
    return (
        f"Given an undirected graph with {n} nodes (0..{n - 1}) and edges specified "
        f"below. For each node, we also provide up to {k} neighbors with the largest "
        "degrees. Find a minimum vertex cover: a smallest set of vertices such that "
        "every edge has at least one endpoint in this set. The input includes the "
        f"edges of the graph and the top-{k} neighbors for each node in the format "
        f"N[a,b,#c,#d], where a and b are the top-{k} neighbors, #c is the degree of "
        "a, and #d is the degree of b. Output format: 1. Set: The list of vertices in "
        "the minimum vertex cover. 2. Objective: The size of that set."
    )


def _pfsp_instruction(jobs: int, machines: int) -> str:
    return (
        f"Solve the Permutation Flowshop Scheduling Problem (PFSP) with {jobs} jobs "
        f"and {machines} machines. Each machine can process only one job at a time, "
        "and each job can be processed by only one machine at a time. Jobs must be "
        "processed on each machine in the same order. Identify the job order that "
        "minimizes the maximum completing time. The input includes the processing "
        "times of each machine on every job, the jobs with the lowest processing time "
        "for each machine, and their respective processing times. Jobs are numbered "
        f"1 to {jobs} in the order their processing times are listed, and the answer "
        "uses these numbers. Provide the solution in the following format: 1. Order: "
        "List the order that jobs are processed on each machine. 2. Objective: The "
        "objective value (maximum completing time)."
    )


def _jssp_instruction(jobs: int, machines: int) -> str:
    return (
        f"Solve the Job Shop Scheduling Problem (JSSP) with {jobs} jobs and {machines} "
        f"machines. Each job consists of {machines} operations which need to be "
        "sequentially processed on specific machines. Each machine can process only "
        "one job at a time, and each job can be processed by only one machine at a "
        "time. Identify the schedule that minimizes the maximum completion time "
        "(makespan). The input includes the information of operations for each job, "
        "including their specific machine and processing time, as well as the "
        "operators with the lowest processing time and their respective machines and "
        "processing times. Provide the solution in the following format: 1. Schedule: "
        "List the order that jobs are processed on each machine. 2. Objective: The "
        "makespan of the schedule."
    )


def _routing_input(kind: ProblemKind, p: RoutingInstance, feats: HeuristicFeatures) -> str:
    parts = []
    for i, (x, y) in enumerate(p.coords):
        extra = ""
        if kind is ProblemKind.OP:
            extra = f", prize: {p.prizes[i]}"
        elif kind is ProblemKind.CVRP:
            extra = f", demand: {p.demands[i]}"
        parts.append(
            f"Node {i}, coordinates: [{_fmt_coord(x)}, {_fmt_coord(y)}]{extra}, "
            f"neighbors: [{_neighbor_list(feats, i)}]"
        )
    return "; ".join(parts)


def _graph_input(p: GraphInstance, feats: HeuristicFeatures) -> str:
    edges = ",".join(f"({u},{v})" for u, v in p.edges)
    nodes = []
    for i in range(p.num_nodes):
        entry = feats.entries[i]
        ids = ",".join(str(j) for j, _ in entry)
        degs = ",".join(f"#{int(d)}" for _, d in entry)
        inner = f"{ids},{degs}" if entry else ""
        nodes.append(f"N{i}:[{inner}]")
    return f"Edges: [{edges}]\n\n" + "; ".join(nodes)


def _pfsp_input(p: SchedulingInstance, feats: HeuristicFeatures) -> str:
    parts = []
    for m in range(p.num_machines):
        times = ", ".join(str(p.ptimes[j][m]) for j in range(p.num_jobs))
        # Jobs display 1-based, as the Order answer grammar reads them.
        lowest = ", ".join(f"{j + 1}: {int(t)}" for j, t in feats.entries[m])
        parts.append(
            f"Machine {m}, processing times: [{times}], "
            f"jobs with lowest processing time: [{lowest}]"
        )
    return "; ".join(parts)


def _jssp_input(p: SchedulingInstance, feats: HeuristicFeatures) -> str:
    parts = []
    for j in range(p.num_jobs):
        ops = ", ".join(
            f"({p.machine_order[j][i]}, {p.ptimes[j][i]})" for i in range(p.num_machines)
        )
        lowest = ", ".join(
            f"{i}: ({p.machine_order[j][i]}, {int(t)})" for i, t in feats.entries[j]
        )
        parts.append(
            f"Job {j}, machines and processing times for operations: [{ops}], "
            f"operators with lowest processing time: [{lowest}]"
        )
    return "; ".join(parts)


def encode(inst: Instance, k: int = DEFAULT_K) -> TextAttributedInstance:
    """Encode an instance as a TAI with top-k heuristic features."""
    if k < 1:
        raise ValueError("k must be >= 1")
    feats = compute_features(inst, k)
    p = inst.payload

    if inst.kind is ProblemKind.TSP:
        instruction = _tsp_instruction(p.n, k)
        text = _routing_input(inst.kind, p, feats)
    elif inst.kind is ProblemKind.OP:
        instruction = _op_instruction(p.n, k, p.distance_limit)
        text = _routing_input(inst.kind, p, feats)
    elif inst.kind is ProblemKind.CVRP:
        instruction = _cvrp_instruction(p.n - 1, k, p.capacity)
        text = _routing_input(inst.kind, p, feats)
    elif inst.kind is ProblemKind.MIS:
        instruction = _mis_instruction(p.num_nodes, k)
        text = _graph_input(p, feats)
    elif inst.kind is ProblemKind.MVC:
        instruction = _mvc_instruction(p.num_nodes, k)
        text = _graph_input(p, feats)
    elif inst.kind is ProblemKind.PFSP:
        instruction = _pfsp_instruction(p.num_jobs, p.num_machines)
        text = _pfsp_input(p, feats)
    else:
        instruction = _jssp_instruction(p.num_jobs, p.num_machines)
        text = _jssp_input(p, feats)

    return TextAttributedInstance(
        kind=inst.kind,
        instruction=instruction,
        input=text,
        expected_output_grammar=GRAMMAR_BY_KIND[inst.kind],
    )
