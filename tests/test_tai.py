"""Text encoding, feature extraction, rendering, and parsing tests.

The golden strings in this file pin the exact textual surface: instruction
wording, neighbor-list formats, and the canonical answer grammar.
"""

import importlib
import math
import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobench.problems.types import (
    GraphInstance,
    Instance,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    RoutingInstance,
    SchedulingInstance,
    VertexSet,
)
from cobench.tai.encode import encode
from cobench.problems.generate import BLOCK_ROWS
from cobench.tai.features import (
    graph_features,
    jssp_features,
    pfsp_features,
    routing_features,
)
from cobench.tai.parse import parse, strip_thinking
from cobench.tai.render import (
    PROMPT_TEMPLATE,
    format_objective,
    format_solution,
    render_prompt,
)
from cobench.tai.types import GRAMMAR_BY_KIND
from cobench.verify import score

import oracles
from conftest import ALL_KINDS, make_instance


def _graph(num_nodes, edges):
    return GraphInstance(num_nodes=num_nodes, edges=tuple(sorted(edges)))


# Worked graph example: 10 nodes, known degree ranking.
MIS_EXAMPLE = _graph(
    10,
    [(0, 9), (1, 2), (1, 3), (1, 6), (1, 9), (2, 6), (3, 4), (4, 5), (5, 9), (6, 9)],
)

# Worked graph example: 11 nodes, hub-heavy.
MVC_EXAMPLE = _graph(
    11,
    [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (0, 9), (0, 10),
        (1, 3), (1, 4), (2, 7), (3, 5), (3, 8), (3, 9), (4, 6), (5, 7), (5, 10),
    ],
)

# Worked scheduling example: 6 jobs x 5 machines, given machine-major.
PFSP_BY_MACHINE = [
    [32, 22, 26, 49, 44, 14],
    [49, 87, 91, 98, 13, 3],
    [56, 46, 96, 10, 46, 23],
    [99, 21, 6, 65, 4, 76],
    [56, 27, 59, 9, 70, 64],
]
PFSP_EXAMPLE = SchedulingInstance(
    ptimes=tuple(tuple(PFSP_BY_MACHINE[m][j] for m in range(5)) for j in range(6))
)


# ---------------------------------------------------------------------------
# Instructions


def test_tsp_instruction_golden():
    inst = Instance(
        kind=ProblemKind.TSP,
        payload=RoutingInstance(coords=tuple((float(i), 0.0) for i in range(81))),
        id="x",
    )
    tai = encode(inst, k=2)
    assert tai.instruction == (
        "Solve the Traveling Salesman Problem (TSP) for the given list of 81 cities. "
        "Each city is represented as a node with coordinates (x, y). Identify the "
        "shortest route that visits every city exactly once and returns to the starting "
        "city. The input includes city coordinates, the 2 nearest neighbors for each "
        "city, and their respective distances. Provide the solution in the following "
        "format: 1. Route: List the nodes in the order they are visited. 2. Objective: "
        "The objective value (total travel distance)."
    )


def test_op_instruction_golden():
    coords = tuple((float(i), 0.0) for i in range(23))
    inst = Instance(
        kind=ProblemKind.OP,
        payload=RoutingInstance(
            coords=coords, prizes=(0,) + (1,) * 22, distance_limit=2682.5
        ),
        id="x",
    )
    tai = encode(inst, k=2)
    assert "Solve the Orienteering Problem with 23 nodes." in tai.instruction
    assert "subject to a maximum route length T = 2682.5." in tai.instruction
    assert "2. Objective: The objective value (summation of the collecting prizes)." in tai.instruction


def test_op_instruction_without_a_length_limit():
    # An infinite distance limit is legal and means no budget: the prompt says
    # so rather than printing "T = inf".
    inst = Instance(
        kind=ProblemKind.OP,
        payload=RoutingInstance(
            coords=((0.0, 0.0), (3.0, 4.0), (6.0, 0.0)), prizes=(0, 2, 5), distance_limit=math.inf
        ),
        id="x",
    )
    instruction = encode(inst, k=2).instruction
    assert "inf" not in instruction and "T =" not in instruction
    assert (
        "collecting the maximum total prize possible, with no limit on the route length. "
        "You may visit a subset of nodes. The input includes city coordinates"
    ) in instruction


def test_cvrp_instruction_golden():
    coords = tuple((float(i), 0.0) for i in range(46))
    inst = Instance(
        kind=ProblemKind.CVRP,
        payload=RoutingInstance(coords=coords, demands=(0,) + (1,) * 45, capacity=111),
        id="x",
    )
    tai = encode(inst, k=2)
    assert tai.instruction.startswith(
        "Solve the Capacitated Vehicle Routing Problem (CVRP) with 45 customers "
        "and 1 depot (node 0)."
    )
    assert "All vehicles have the same capacity of 111." in tai.instruction
    assert "2. Objective: The total distance of all routes." in tai.instruction


def test_mis_instruction_golden():
    inst = Instance(kind=ProblemKind.MIS, payload=MIS_EXAMPLE, id="x")
    tai = encode(inst, k=2)
    assert tai.instruction == (
        "Given an undirected graph with 10 nodes (0..9) and edges specified "
        "below. For each node, we also provide up to 2 neighbors connected to it. "
        "Find a maximum independent set: the largest set of vertices where no two "
        "vertices share an edge. The input includes the edges of the graph and the "
        "top-2 neighbors for each node in the format N[a,b,#c,#d], where a and b "
        "are the top-2 neighbors, #c is the degree of a, and #d is the degree of b. "
        "Output format: 1. Set: The list of vertices in the maximum independent set. "
        "2. Objective: The size of that set."
    )


def test_mvc_instruction_golden():
    inst = Instance(kind=ProblemKind.MVC, payload=MVC_EXAMPLE, id="x")
    tai = encode(inst, k=2)
    assert tai.instruction.startswith(
        "Given an undirected graph with 11 nodes (0..10) and edges specified "
        "below. For each node, we also provide up to 2 neighbors with the largest "
        "degrees."
    )
    assert "2. Objective: The size of that set." in tai.instruction


def test_pfsp_instruction_golden():
    inst = Instance(kind=ProblemKind.PFSP, payload=PFSP_EXAMPLE, id="x")
    tai = encode(inst)
    assert tai.instruction == (
        "Solve the Permutation Flowshop Scheduling Problem (PFSP) with 6 jobs "
        "and 5 machines. Each machine can process only one job at a time, "
        "and each job can be processed by only one machine at a time. Jobs must be "
        "processed on each machine in the same order. Identify the job order that "
        "minimizes the maximum completing time. The input includes the processing "
        "times of each machine on every job, the jobs with the lowest processing time "
        "for each machine, and their respective processing times. Jobs are numbered "
        "1 to 6 in the order their processing times are listed, and the answer uses "
        "these numbers. Provide the solution in the following format: 1. Order: List "
        "the order that jobs are processed on each machine. 2. Objective: The "
        "objective value (maximum completing time)."
    )


def test_jssp_instruction_golden():
    inst = make_instance(ProblemKind.JSSP, size=6, seed=0)
    tai = encode(inst)
    assert tai.instruction.startswith(
        "Solve the Job Shop Scheduling Problem (JSSP) with 6 jobs and 6 machines. "
        "Each job consists of 6 operations which need to be sequentially processed "
        "on specific machines."
    )
    assert "1. Schedule: List the order that jobs are processed on each machine." in tai.instruction


def test_k_appears_in_instruction_and_entries():
    inst = make_instance(ProblemKind.TSP, size=20, seed=0)
    tai = encode(inst, k=3)
    assert "the 3 nearest neighbors" in tai.instruction
    first = tai.input.split(";")[0]
    assert first.count(":") >= 4  # coordinates + 3 neighbor distances
    with pytest.raises(ValueError):
        encode(inst, k=0)


# ---------------------------------------------------------------------------
# Inputs


def test_graph_input_golden_mis():
    inst = Instance(kind=ProblemKind.MIS, payload=MIS_EXAMPLE, id="x")
    tai = encode(inst, k=2)
    assert tai.input == (
        "Edges: [(0,9),(1,2),(1,3),(1,6),(1,9),(2,6),(3,4),(4,5),(5,9),(6,9)]\n\n"
        "N0:[9,#4]; N1:[9,6,#4,#3]; N2:[1,6,#4,#3]; N3:[1,4,#4,#2]; "
        "N4:[3,5,#2,#2]; N5:[9,4,#4,#2]; N6:[1,9,#4,#4]; N7:[]; N8:[]; "
        "N9:[1,6,#4,#3]"
    )


def test_graph_input_golden_mvc():
    inst = Instance(kind=ProblemKind.MVC, payload=MVC_EXAMPLE, id="x")
    tai = encode(inst, k=2)
    edges = (
        "Edges: [(0,1),(0,2),(0,3),(0,4),(0,5),(0,6),(0,8),(0,9),(0,10),"
        "(1,3),(1,4),(2,7),(3,5),(3,8),(3,9),(4,6),(5,7),(5,10)]"
    )
    nodes = (
        "N0:[3,5,#5,#4]; N1:[0,3,#9,#5]; N2:[0,7,#9,#2]; N3:[0,5,#9,#4]; "
        "N4:[0,1,#9,#3]; N5:[0,3,#9,#5]; N6:[0,4,#9,#3]; N7:[5,2,#4,#2]; "
        "N8:[0,3,#9,#5]; N9:[0,3,#9,#5]; N10:[0,5,#9,#4]"
    )
    assert tai.input == edges + "\n\n" + nodes


def test_pfsp_input_golden():
    inst = Instance(kind=ProblemKind.PFSP, payload=PFSP_EXAMPLE, id="x")
    tai = encode(inst, k=2)
    assert tai.input == (
        "Machine 0, processing times: [32, 22, 26, 49, 44, 14], "
        "jobs with lowest processing time: [6: 14, 2: 22]; "
        "Machine 1, processing times: [49, 87, 91, 98, 13, 3], "
        "jobs with lowest processing time: [6: 3, 5: 13]; "
        "Machine 2, processing times: [56, 46, 96, 10, 46, 23], "
        "jobs with lowest processing time: [4: 10, 6: 23]; "
        "Machine 3, processing times: [99, 21, 6, 65, 4, 76], "
        "jobs with lowest processing time: [5: 4, 3: 6]; "
        "Machine 4, processing times: [56, 27, 59, 9, 70, 64], "
        "jobs with lowest processing time: [4: 9, 2: 27]"
    )


def test_jssp_input_golden_first_job():
    payload = SchedulingInstance(
        ptimes=((73, 84, 70, 7, 62, 30),),
        machine_order=((2, 4, 0, 3, 1, 5),),
    )
    inst = Instance(kind=ProblemKind.JSSP, payload=payload, id="x")
    tai = encode(inst, k=2)
    assert tai.input == (
        "Job 0, machines and processing times for operations: "
        "[(2, 73), (4, 84), (0, 70), (3, 7), (1, 62), (5, 30)], "
        "operators with lowest processing time: [3: (3, 7), 5: (5, 30)]"
    )


def test_routing_input_worked_example():
    # dist(0,2) = 1, dist(0,1) = 5, dist(1,2) = sqrt(18) = 4.24...
    payload = RoutingInstance(coords=((0.0, 0.0), (3.0, 4.0), (0.0, 1.0)))
    inst = Instance(kind=ProblemKind.TSP, payload=payload, id="x")
    tai = encode(inst, k=2)
    assert tai.input == (
        "Node 0, coordinates: [0, 0], neighbors: [2: 1.0, 1: 5.0]; "
        "Node 1, coordinates: [3, 4], neighbors: [2: 4.2, 0: 5.0]; "
        "Node 2, coordinates: [0, 1], neighbors: [0: 1.0, 1: 4.2]"
    )


def test_op_input_carries_prizes():
    inst = make_instance(ProblemKind.OP, size=10, seed=1)
    tai = encode(inst)
    assert "prize: 0," in tai.input.split(";")[0]  # depot prize is 0


def test_cvrp_input_carries_demands():
    inst = make_instance(ProblemKind.CVRP, size=10, seed=1)
    tai = encode(inst)
    assert "demand: 0," in tai.input.split(";")[0]  # depot demand is 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_encode_sets_grammar(kind):
    inst = make_instance(kind, seed=5)
    tai = encode(inst)
    assert tai.expected_output_grammar is GRAMMAR_BY_KIND[kind]
    assert tai.kind is kind


# ---------------------------------------------------------------------------
# Feature extraction


def test_routing_features_tie_breaks_to_lower_id():
    # Nodes 1 and 2 are both at distance 1 from node 0.
    payload = RoutingInstance(coords=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (5.0, 5.0)))
    feats = routing_features(payload, k=2)
    assert feats[0] == ((1, 1.0), (2, 1.0))


def _grid(side):
    return tuple((float(x), float(y)) for x in range(side) for y in range(side))


def _random_points(n):
    # Integer coordinates in a small box, as generated, so ties are common.
    rng = np.random.default_rng(n)
    return tuple((float(x), float(y)) for x, y in rng.integers(0, 20, size=(n, 2)))


@pytest.mark.parametrize(
    "coords",
    [pytest.param(_grid(side), id=f"grid{side}") for side in (10, 17)]
    + [pytest.param(_random_points(n), id=f"random{n}") for n in (2, 3, 65, 100, BLOCK_ROWS + 1)],
)
def test_routing_features_match_math_dist_oracle(coords):
    # The 17x17 grid and BLOCK_ROWS + 1 random points span two row blocks.
    payload = RoutingInstance(coords=coords)
    for k in (1, 2, 3, 5):
        assert routing_features(payload, k) == oracles.nearest_neighbours(coords, k)


def test_k_larger_than_n_truncates():
    payload = RoutingInstance(coords=((0.0, 0.0), (1.0, 0.0)))
    feats = routing_features(payload, k=5)
    assert feats == (((1, 1.0),), ((0, 1.0),))


def test_graph_features_rank_by_degree_then_id():
    ends = tuple(chain.from_iterable(MIS_EXAMPLE.edges))
    feats = graph_features(MIS_EXAMPLE.num_nodes, ends, k=2)
    # Node 9 neighbors {0, 1, 5, 6} with degrees {1, 4, 2, 3}: top-2 are 1, 6.
    assert feats[9] == ((1, 4.0), (6, 3.0))
    assert feats[7] == ()  # isolated node


def test_pfsp_features_lowest_times():
    feats = pfsp_features(PFSP_EXAMPLE, k=2)
    assert feats[0] == ((5, 14.0), (1, 22.0))
    assert feats[3] == ((4, 4.0), (2, 6.0))


def test_jssp_features_lowest_durations():
    payload = SchedulingInstance(
        ptimes=((73, 84, 70, 7, 62, 30),),
        machine_order=((2, 4, 0, 3, 1, 5),),
    )
    feats = jssp_features(payload, k=2)
    assert feats[0] == ((3, 7.0), (5, 30.0))


# ---------------------------------------------------------------------------
# Rendering


def test_prompt_template_exact():
    assert PROMPT_TEMPLATE == (
        "Below is an instruction describing a combinatorial optimization problem. "
        "It is paired with an input that provides the data of the instance. \n"
        "Your task is to produce a feasible solution that optimizes (minimizes or "
        "maximizes) the given objective.\n\n"
        "### Instruction:{}\n\n### Input:{}\n\n### Response:"
    )


def test_render_prompt_slots():
    inst = make_instance(ProblemKind.TSP, size=10, seed=0)
    tai = encode(inst)
    text = render_prompt(tai)
    assert text.endswith("\n\n### Response:")
    assert "### Instruction:" + tai.instruction in text
    assert "### Input:" + tai.input in text
    # The preamble line keeps its trailing space before the newline.
    assert "the data of the instance. \n" in text


def test_format_objective_by_kind():
    assert format_objective(ProblemKind.TSP, 6833.3468) == "6833.35"
    assert format_objective(ProblemKind.OP, 98.0) == "98.00"
    assert format_objective(ProblemKind.MIS, 6.0) == "6"
    assert format_objective(ProblemKind.PFSP, 471.0) == "471"


def test_format_solution_goldens():
    assert (
        format_solution(ProblemKind.TSP, Route((0, 2, 1, 0)), 12.345)
        == "Route: [0, 2, 1, 0], Objective: 12.35"
    )
    assert (
        format_solution(ProblemKind.CVRP, RouteSet(((0, 1, 0), (0, 2, 0))), 10.0)
        == "Routes: [[0, 1, 0], [0, 2, 0]], Objective: 10.00"
    )
    assert (
        format_solution(ProblemKind.MIS, VertexSet.of([5, 0, 3]), 3)
        == "Set: [0, 3, 5], Objective: 3"
    )
    # Job orders display 1-based.
    assert (
        format_solution(ProblemKind.PFSP, JobOrder((5, 0, 1, 4, 2, 3)), 471)
        == "Order: [6, 1, 2, 5, 3, 4], Objective: 471"
    )
    assert (
        format_solution(ProblemKind.JSSP, MachineSchedules(((1, 0), (0, 1))), 9)
        == "Schedule: [[1, 0], [0, 1]], Objective: 9"
    )
    assert format_solution(ProblemKind.MVC, VertexSet.of([1]), None) == "Set: [1]"


def test_format_solution_type_mismatch():
    with pytest.raises(TypeError):
        format_solution(ProblemKind.TSP, VertexSet.of([0]), 1.0)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_route_golden():
    text = "Route: [0, 2, 6, 8, 11, 19, 22, 18, 16, 14, 10, 13, 12, 9, 1, 5], Objective: 98.00"
    parsed = parse(text, ProblemKind.OP)
    assert parsed.format_ok
    assert parsed.solution == Route((0, 2, 6, 8, 11, 19, 22, 18, 16, 14, 10, 13, 12, 9, 1, 5))
    assert parsed.stated_objective == pytest.approx(98.0)


def test_parse_routes_golden():
    text = "Routes: [[0, 1, 2, 0], [0, 3, 0]], Objective: 6643.76"
    parsed = parse(text, ProblemKind.CVRP)
    assert parsed.format_ok
    assert parsed.solution == RouteSet(((0, 1, 2, 0), (0, 3, 0)))
    assert parsed.stated_objective == pytest.approx(6643.76)


def test_parse_set_golden():
    parsed = parse("Set: [0, 2, 3, 5, 7, 8], Objective: 6", ProblemKind.MIS)
    assert parsed.format_ok
    assert parsed.solution == VertexSet.of([0, 2, 3, 5, 7, 8])
    assert parsed.stated_objective == 6.0


def test_parse_order_shifts_to_zero_based():
    parsed = parse("Order: [6, 1, 2, 5, 3, 4], Objective: 471", ProblemKind.PFSP)
    assert parsed.format_ok
    assert parsed.solution == JobOrder((5, 0, 1, 4, 2, 3))
    assert parsed.stated_objective == 471.0


def test_parse_schedule_golden():
    text = (
        "Schedule: [[2, 0, 5, 1, 3, 4], [2, 4, 1, 3, 0, 5], [0, 2, 3, 1, 4, 5], "
        "[1, 2, 5, 0, 4, 3], [1, 0, 5, 3, 4, 2], [5, 2, 4, 3, 1, 0]], Objective: 466"
    )
    parsed = parse(text, ProblemKind.JSSP)
    assert parsed.format_ok
    assert parsed.solution.sequences[0] == (2, 0, 5, 1, 3, 4)
    assert parsed.stated_objective == 466.0


def test_parse_takes_last_valid_occurrence():
    text = (
        "First I tried Route: [0, 1, 2, 0] but improved it.\n"
        "Final answer. Route: [0, 2, 1, 0], Objective: 50"
    )
    parsed = parse(text, ProblemKind.TSP)
    assert parsed.solution == Route((0, 2, 1, 0))
    assert parsed.stated_objective == 50.0


def test_parse_falls_back_when_last_occurrence_malformed():
    text = "Route: [0, 1, 2, 0]\nRoute: [oops"
    parsed = parse(text, ProblemKind.TSP)
    assert parsed.format_ok
    assert parsed.solution == Route((0, 1, 2, 0))


def test_parse_falls_back_past_an_unhashable_literal():
    # literal_eval raises TypeError on an unhashable key or set member; the
    # label before it still gives the answer.
    parsed = parse("Route: [0, 1, 0] then Route: [{[1]: 2}]", ProblemKind.TSP)
    assert parsed.solution == Route((0, 1, 0))
    parsed = parse("Set: [1, 2] Set: [{[0]}]", ProblemKind.MIS)
    assert parsed.solution == VertexSet(frozenset({1, 2}))


def test_parse_label_aliases():
    assert parse("Routes: [0, 1, 0]", ProblemKind.TSP).format_ok
    assert parse("Route: [0, 1, 0]", ProblemKind.CVRP).solution == RouteSet(((0, 1, 0),))


# The label words in mixed case, the characters that may end a label, and
# ASCII characters re counts as whitespace that str.split() also splits on.
_LABEL_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["Route", "ROUTES", "rOuTe", "Set", "sET", "Order", "ORDER", "Schedule"]),
        st.sampled_from([" ", "  ", "\t\n", "*", "**", " * ", ":", "=", " :", "\x1c"]),
        st.text(alphabet="RrOoUuTtEeSsKk:=*_`[] \t\n\r\x0b\x0c\x1c\x1f0", max_size=4),
        st.text(alphabet=st.characters(max_codepoint=127), max_size=4),
    ),
    max_size=8,
).map("".join)


@settings(deadline=None, max_examples=300)
@given(text=_LABEL_TEXT)
@example("Schedule : ROUTES**=\x1cset*:")
@example("Route \t* :Set  =ORDER**\n\n:")
def test_lowered_label_scan_finds_the_ignorecase_label_ends(text):
    assert text.isascii()
    parse_module = importlib.import_module("cobench.tai.parse")
    for grammar, any_case in parse_module._LABEL_RES.items():
        lowered = parse_module._LOWER_LABEL_RES[grammar].finditer(text.lower())
        assert [m.end() for m in lowered] == [m.end() for m in any_case.finditer(text)]


def test_non_ascii_text_keeps_case_folded_labels():
    # re folds the long s to "s", which lower() does not do.
    assert parse("\u017fet: [1, 2]", ProblemKind.MIS).solution == VertexSet(frozenset({1, 2}))
    assert parse("\u00e9tape 2, Route: [0, 1, 0]", ProblemKind.TSP).solution == Route((0, 1, 0))
    assert parse("SCHEDULE: [[0]] \u2014 done", ProblemKind.JSSP).solution == MachineSchedules(((0,),))


def test_parse_markdown_tolerance():
    parsed = parse("**Order**: [2, 1], **Objective**: 471", ProblemKind.PFSP)
    assert parsed.format_ok
    assert parsed.solution == JobOrder((1, 0))
    assert parsed.stated_objective == 471.0
    parsed = parse("Route = **[0, 1, 0]**, Objective = 5", ProblemKind.TSP)
    assert parsed.format_ok
    assert parsed.stated_objective == 5.0


def test_parse_objective_decimal():
    parsed = parse("Route: [0, 1, 0], Objective: -12.5", ProblemKind.TSP)
    assert parsed.stated_objective == -12.5


def test_parse_rejections():
    assert not parse("Route: []", ProblemKind.TSP).format_ok          # empty route
    assert not parse("Route: [0, 1.5, 0]", ProblemKind.TSP).format_ok  # float ids
    assert not parse("Route: [True, False]", ProblemKind.TSP).format_ok
    assert not parse("Order: []", ProblemKind.PFSP).format_ok
    assert not parse("no labels here", ProblemKind.TSP).format_ok
    assert not parse("", ProblemKind.TSP).format_ok
    assert not parse(None, ProblemKind.TSP).format_ok
    assert not parse("Schedule: [0, 1]", ProblemKind.JSSP).format_ok  # flat, needs nested
    assert not parse("Route: [[0], [1]]", ProblemKind.TSP).format_ok  # nested, needs flat


def _nested_per_row(obj):
    """The per-row form of parse's nested-list reader: a non-empty list or
    tuple of non-empty lists or tuples of plain ints, as a tuple of tuples."""
    if not isinstance(obj, (list, tuple)) or not obj:
        return None
    rows = []
    for row in obj:
        if not isinstance(row, (list, tuple)) or not row or set(map(type, row)) != {int}:
            return None
        rows.append(tuple(row))
    return tuple(rows)


_NESTED_VALUE = st.one_of(
    st.integers(-3, 30), st.booleans(), st.floats(allow_nan=False), st.none(), st.text(max_size=1)
)
_NESTED_ROW = st.one_of(
    st.lists(st.integers(0, 9), max_size=5),
    st.lists(_NESTED_VALUE, max_size=4),
    st.lists(st.integers(0, 9), max_size=4).map(tuple),
    _NESTED_VALUE,
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    obj=st.one_of(
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5), max_size=5),
        st.lists(_NESTED_ROW, max_size=5),
        st.lists(_NESTED_ROW, max_size=5).map(tuple),
        st.lists(_NESTED_VALUE, max_size=5),  # a single flat level
        _NESTED_VALUE,
    )
)
def test_nested_int_lists_equal_the_per_row_form(obj):
    got = importlib.import_module("cobench.tai.parse")._as_nested_int_lists(obj)
    # repr tells True from 1 and a list from a tuple.
    assert repr(got) == repr(_nested_per_row(obj))


def test_parse_empty_set_allowed():
    parsed = parse("Set: []", ProblemKind.MIS)
    assert parsed.format_ok
    assert parsed.solution == VertexSet(frozenset())


def test_parse_never_raises_on_noise():
    for text in ("Route: [0, 1", "Route: [0]]][[", "Objective: 5", "[1,2,3]", "Route:"):
        parsed = parse(text, ProblemKind.TSP)
        assert parsed.solution is None or parsed.format_ok


def test_strip_thinking():
    assert strip_thinking("<think>secret</think>Route: [0, 1, 0]") == "Route: [0, 1, 0]"
    assert strip_thinking("a<think>x</think>b<think>y</think>c") == "abc"
    assert strip_thinking("<think>never closed Route: [9]") == ""
    assert strip_thinking("plain") == "plain"


def test_parse_round_trip_through_render(small_instances):
    from cobench.heuristics import solve
    from conftest import DEFAULT_METHOD
    from cobench.verify import objective

    for kind, inst in small_instances.items():
        res = solve(inst, DEFAULT_METHOD[kind], seed=0)
        text = format_solution(kind, res.solution, res.objective.value)
        parsed = parse(text, kind)
        assert parsed.format_ok, text
        assert objective(inst, parsed.solution).value == pytest.approx(res.objective.value)


# ---------------------------------------------------------------------------
# The JSON reader against ast.literal_eval

# Canonical payloads at depth 1-3 (empty rows included), with up to two
# tokens swapped for ones json.loads must either read as literal_eval does,
# reject, or read as a value no solution accepts: signs, leading zeros,
# 18-22 digit ints, an int past the 4300-digit conversion limit, Unicode
# digits, non-int literals, JSON-only literals (true, null, NaN, Infinity,
# "1", 1E3), tuples, comments, trailing commas, unbalanced brackets, and
# whitespace that only some readers accept (U+00A0, \r, \f).
_ODD = {
    "int": st.one_of(
        st.integers(10**17, 10**22).map(str),
        st.sampled_from([
            "-1", "-0", "- 1", "+1", "01", "00", "-01", "9" * 4301,
            "0x1", "1_0", "1.0", "1e3", "True", "None", "'1'", "(1,2)", "()", "{[]: 1}", "",
            "true", "false", "null", "NaN", "Infinity", "-Infinity", '"1"', "1E3",
        ]),
        # Arabic-Indic, Devanagari and fullwidth digits, alone or after an ASCII one
        st.builds(
            lambda lead, digit: lead + digit,
            st.sampled_from(["", "1", "-2"]),
            st.sampled_from(["\u0663", "\u0967", "\uff11"]),
        ),
    ),
    ", ": st.sampled_from([
        ",", " , ", ",\n", "\t,\t", ",\xa0", "\xa0,", ",\r", ",\f", ", # c\n", ",,", " ",
    ]),
    "[": st.sampled_from(["(", "[[", "", "[ ", "[\n", "[\xa0", "[\r", "[\f", "[#c\n"]),
    "]": st.sampled_from([")", "]]", "", ",]", " ]", "\t]", "\xa0]", "\r]", "\f]"]),
}


@st.composite
def _near_canonical_payload(draw):
    shape = st.integers(0, 99).map(str)
    for _ in range(draw(st.integers(1, 3))):
        shape = st.lists(shape, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
    text = draw(shape)
    for _ in range(draw(st.integers(0, 2))):
        spans = [m.span() for m in re.finditer(r"[0-9]+|, |\[|\]", text)]
        a, b = spans[draw(st.integers(0, len(spans) - 1))]
        token = text[a:b]
        text = text[:a] + draw(_ODD.get(token, _ODD["int"])) + text[b:]
    return text


_SEGMENTS = st.one_of(
    st.builds(
        lambda label, lead, payload: label + lead + payload,
        st.sampled_from([
            "Route: ", "Routes:", "route = ", "Set: ", "SET:", "Order: ", "Order:\n",
            "Schedule: ", "**Schedule**: ", "Route:**",
        ]),
        st.sampled_from(["", " ", "\n", "**", "`", "_ "]),
        _near_canonical_payload(),
    ),
    st.sampled_from([
        ", Objective: 12", ", Objective: 3.25", " objective = -4", "\nObjective:",
        " **Objective**: 7", "[", "]", " then ", "Route:", "# note\n",
    ]),
)
# One kind per answer grammar.
_GRAMMAR_KINDS = (
    ProblemKind.TSP, ProblemKind.CVRP, ProblemKind.MIS, ProblemKind.PFSP, ProblemKind.JSSP,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=st.lists(_SEGMENTS, min_size=1, max_size=4).map("".join))
@example("Route: [0, true]")
@example("Set: [null]")
@example("Order: [1, 1E3]")
@example("Route: [1, 1\u0663]")
@example("Order: [1,\xa02]")
@example("Set: [01, 2]")
@example("Schedule: [[0, 1], [" + "9" * 4301 + "]]")
@example("Route: [0, 1] Route: [" + "1" * 19 + "]")
# Each way the one-pass read falls back to the bracket scan, or must agree with it.
@example('Route: [0, 1, 0] then Route: ["]", 1]')
@example("Route: " + "[" * 100_000)
@example("Route: [0, 1]]")
@example("Route: [(0, 1)]")
@example("Route: [1.0, 2]")
def test_parse_matches_literal_eval_reference(text):
    for kind in _GRAMMAR_KINDS:
        assert parse(text, kind) == oracles.reference_parse(text, kind), kind


# ---------------------------------------------------------------------------
# Prompt ids against the answer grammar


def _hint_ids(kind, text):
    """The answer-entity ids an encoded input shows, hints included."""
    if kind in (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP):
        hints = "".join(re.findall(r"neighbors: \[[^\]]*\]", text))
        ids = re.findall(r"Node (\d+)", text) + re.findall(r"(\d+):", hints)
    elif kind in (ProblemKind.MIS, ProblemKind.MVC):
        ids = re.findall(r"(?<![#\d])\d+", text)  # every number but the #degrees
    elif kind is ProblemKind.PFSP:
        hints = "".join(re.findall(r"jobs with lowest processing time: \[[^\]]*\]", text))
        ids = re.findall(r"(\d+):", hints)
    else:
        ids = re.findall(r"Job (\d+),", text)
    return {int(i) for i in ids}


def _answer_with(kind, inst, shown):
    """An answer text that puts the shown id where the grammar takes an id."""
    if kind in (ProblemKind.TSP, ProblemKind.OP):
        return f"Route: [{shown}]"
    if kind is ProblemKind.CVRP:
        return f"Routes: [[0, {shown}, 0]]"
    if kind in (ProblemKind.MIS, ProblemKind.MVC):
        return f"Set: [{shown}]"
    if kind is ProblemKind.PFSP:
        return f"Order: [{shown}]"
    # Every machine runs the shown job first, then the rest in id order.
    row = [shown] + [j for j in range(inst.payload.num_jobs) if j != shown]
    return f"Schedule: {[row] * inst.payload.num_machines}"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_id_the_prompt_shows_is_an_answer_id(kind):
    inst = make_instance(kind, size=6, seed=3)
    shown = _hint_ids(kind, encode(inst, k=3).input)
    assert shown
    for i in sorted(shown):
        parsed = parse(_answer_with(kind, inst, i), kind)
        assert parsed.format_ok
        assert score(inst, parsed.solution)[1] is not None, f"{kind.value} id {i}"
