"""Instance -> text encoding.

The instruction states the problem, constraints, and required answer format;
the input lists per-entity data plus heuristic hints (nearest neighbors,
high-degree neighbors, shortest processing times). Numbers render as plain
integers where the data is integral and distances at one decimal.
"""

from __future__ import annotations

import math
from itertools import chain, starmap

from ..problems.types import (
    GraphInstance,
    Instance,
    ProblemKind,
    RoutingInstance,
    SchedulingInstance,
)
from .features import DEFAULT_K, graph_features, jssp_features, pfsp_features, routing_features
from .types import ORDER_BASE, TextAttributedInstance

# One str.format template per kind. The fields: n nodes (last = n - 1), k
# hints, the OP route `budget` clause, the CVRP `customers` and `capacity`,
# and the scheduling `jobs` and `machines`.
_INSTRUCTIONS = {
    ProblemKind.TSP: (
        "Solve the Traveling Salesman Problem (TSP) for the given list of {n} cities. "
        "Each city is represented as a node with coordinates (x, y). Identify the "
        "shortest route that visits every city exactly once and returns to the starting "
        "city. The input includes city coordinates, the {k} nearest neighbors for each "
        "city, and their respective distances. Provide the solution in the following "
        "format: 1. Route: List the nodes in the order they are visited. 2. Objective: "
        "The objective value (total travel distance)."
    ),
    ProblemKind.OP: (
        "Solve the Orienteering Problem with {n} nodes. Each node has (x, y) "
        "coordinates and a prize for visiting it. You must plan a route that starts at "
        "depot 0, collecting the maximum total prize possible, {budget} The input "
        "includes city coordinates, the {k} nearest neighbors for each city, and their "
        "respective distances. Provide the solution in the following format: 1. Route: "
        "The ordered list of visited nodes. 2. Objective: The objective value "
        "(summation of the collecting prizes)."
    ),
    ProblemKind.CVRP: (
        "Solve the Capacitated Vehicle Routing Problem (CVRP) with {customers} "
        "customers and 1 depot (node 0). Each customer node has a demand. All vehicles "
        "have the same capacity of {capacity}. You must assign each customer to "
        "exactly one route and ensure that the sum of demands on each route does not "
        "exceed the vehicle capacity. Minimize the total distance traveled. The input "
        "includes city coordinates, the {k} nearest neighbors for each city, and their "
        "respective distances. Provide the solution in the following format: 1. Route: "
        "A list of routes, each route as an ordered list of visited nodes (start/end "
        "at the depot). 2. Objective: The total distance of all routes."
    ),
    ProblemKind.MIS: (
        "Given an undirected graph with {n} nodes (0..{last}) and edges specified "
        "below. For each node, we also provide up to {k} neighbors connected to it. "
        "Find a maximum independent set: the largest set of vertices where no two "
        "vertices share an edge. The input includes the edges of the graph and the "
        "top-{k} neighbors for each node in the format N[a,b,#c,#d], where a and b "
        "are the top-{k} neighbors, #c is the degree of a, and #d is the degree of b. "
        "Output format: 1. Set: The list of vertices in the maximum independent set. "
        "2. Objective: The size of that set."
    ),
    ProblemKind.MVC: (
        "Given an undirected graph with {n} nodes (0..{last}) and edges specified "
        "below. For each node, we also provide up to {k} neighbors with the largest "
        "degrees. Find a minimum vertex cover: a smallest set of vertices such that "
        "every edge has at least one endpoint in this set. The input includes the "
        "edges of the graph and the top-{k} neighbors for each node in the format "
        "N[a,b,#c,#d], where a and b are the top-{k} neighbors, #c is the degree of "
        "a, and #d is the degree of b. Output format: 1. Set: The list of vertices in "
        "the minimum vertex cover. 2. Objective: The size of that set."
    ),
    ProblemKind.PFSP: (
        "Solve the Permutation Flowshop Scheduling Problem (PFSP) with {jobs} jobs "
        "and {machines} machines. Each machine can process only one job at a time, "
        "and each job can be processed by only one machine at a time. Jobs must be "
        "processed on each machine in the same order. Identify the job order that "
        "minimizes the maximum completing time. The input includes the processing "
        "times of each machine on every job, the jobs with the lowest processing time "
        "for each machine, and their respective processing times. Jobs are numbered "
        "1 to {jobs} in the order their processing times are listed, and the answer "
        "uses these numbers. Provide the solution in the following format: 1. Order: "
        "List the order that jobs are processed on each machine. 2. Objective: The "
        "objective value (maximum completing time)."
    ),
    ProblemKind.JSSP: (
        "Solve the Job Shop Scheduling Problem (JSSP) with {jobs} jobs and {machines} "
        "machines. Each job consists of {machines} operations which need to be "
        "sequentially processed on specific machines. Each machine can process only "
        "one job at a time, and each job can be processed by only one machine at a "
        "time. Identify the schedule that minimizes the maximum completion time "
        "(makespan). The input includes the information of operations for each job, "
        "including their specific machine and processing time, as well as the "
        "operators with the lowest processing time and their respective machines and "
        "processing times. Provide the solution in the following format: 1. Schedule: "
        "List the order that jobs are processed on each machine. 2. Objective: The "
        "makespan of the schedule."
    ),
}

# The OP budget clause, for a finite route length limit T and for an
# infinite one, which sets no limit.
_OP_BUDGET = (
    "subject to a maximum route length T = {:.1f}. You may visit a subset of nodes, but "
    "the total distance traveled must not exceed T."
)
_OP_NO_BUDGET = "with no limit on the route length. You may visit a subset of nodes."


def _coord_values(coords) -> list:
    """The coordinates, flat, as `%s` prints them in a prompt: an integral
    value as an int, any other in `%g` form."""
    flat = list(map(float, chain.from_iterable(coords)))
    ints = list(map(int, flat))
    if flat == ints:  # generated coordinates are integers
        return ints
    return [i if i == f else format(f, "g") for f, i in zip(flat, ints)]


def _rows(*parts):
    """The values of every row in order, flat: row r takes those of
    parts[0][r], then those of parts[1][r], and so on."""
    return chain.from_iterable(map(chain, *parts))


def _routing_input(kind: ProblemKind, p: RoutingInstance, k: int) -> str:
    hints = routing_features(p, k)
    xy = iter(_coord_values(p.coords))
    heads = [range(p.n), xy, xy]  # zip pairs each x with its y
    row = "Node %d, coordinates: [%s, %s]"
    if kind is ProblemKind.OP:
        heads.append(p.prizes)
        row += ", prize: %s"
    elif kind is ProblemKind.CVRP:
        heads.append(p.demands)
        row += ", demand: %s"
    row += ", neighbors: [" + ", ".join(["%d: %.1f"] * len(hints[0])) + "]"
    values = _rows(zip(*heads), map(chain.from_iterable, hints))
    return "; ".join([row] * p.n) % tuple(values)


def _graph_input(p: GraphInstance, k: int) -> str:
    hints = graph_features(p, k)
    # A node with c hints lists their c ids, then their c degrees.
    rows = ["N%d:[]"] + [
        "N%d:[" + ",".join(["%d"] * c) + "," + ",".join(["#%d"] * c) + "]"
        for c in range(1, max(map(len, hints)) + 1)
    ]
    template = (
        "Edges: [" + ",".join(["(%s,%s)"] * len(p.edges)) + "]\n\n"
        + "; ".join([rows[len(entry)] for entry in hints])
    )
    nodes = _rows(zip(range(p.num_nodes)), map(chain.from_iterable, starmap(zip, hints)))
    return template % tuple(chain(chain.from_iterable(p.edges), nodes))


def _pfsp_input(p: SchedulingInstance, k: int) -> str:
    hints = pfsp_features(p, k)
    row = (
        "Machine %d, processing times: [" + ", ".join(["%s"] * p.num_jobs) + "], "
        "jobs with lowest processing time: [" + ", ".join(["%d: %d"] * len(hints[0])) + "]"
    )
    lowest = ([v for j, t in entry for v in (j + ORDER_BASE, t)] for entry in hints)
    values = _rows(zip(range(p.num_machines)), zip(*p.ptimes), lowest)
    return "; ".join([row] * p.num_machines) % tuple(values)


def _jssp_input(p: SchedulingInstance, k: int) -> str:
    hints = jssp_features(p, k)
    row = (
        "Job %d, machines and processing times for operations: ["
        + ", ".join(["(%s, %s)"] * p.num_machines)
        + "], operators with lowest processing time: ["
        + ", ".join(["%d: (%s, %d)"] * len(hints[0]))
        + "]"
    )
    orders = p.machine_order
    ops = map(chain.from_iterable, map(zip, orders, p.ptimes))
    lowest = (
        [v for i, t in entry for v in (i, order[i], t)] for order, entry in zip(orders, hints)
    )
    values = _rows(zip(range(p.num_jobs)), ops, lowest)
    return "; ".join([row] * p.num_jobs) % tuple(values)


def encode(inst: Instance, k: int = DEFAULT_K) -> TextAttributedInstance:
    """Encode an instance as a TAI with top-k heuristic features."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = inst.payload
    if isinstance(p, RoutingInstance):
        fields = dict(n=p.n, customers=p.n - 1, capacity=p.capacity)
        if inst.kind is ProblemKind.OP:
            limit = p.distance_limit
            fields["budget"] = _OP_NO_BUDGET if limit == math.inf else _OP_BUDGET.format(limit)
        text = _routing_input(inst.kind, p, k)
    elif isinstance(p, GraphInstance):
        fields = dict(n=p.num_nodes, last=p.num_nodes - 1)
        text = _graph_input(p, k)
    else:
        fields = dict(jobs=p.num_jobs, machines=p.num_machines)
        text = (_pfsp_input if inst.kind is ProblemKind.PFSP else _jssp_input)(p, k)
    instruction = _INSTRUCTIONS[inst.kind].format(k=k, **fields)
    return TextAttributedInstance(kind=inst.kind, instruction=instruction, input=text)
