"""Instance generation, serialization, and benchmark-format tests."""

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from cobench.problems.benchmarks import parse_taillard, parse_tsplib, write_taillard
from cobench.problems.generate import (
    BLOCK_ROWS,
    _ba_edges,
    _er_edges,
    default_capacity,
    distance_matrix,
    gen_batch,
    gen_instance,
    nearest_neighbor_tour_length,
    nearest_nodes,
)
from cobench.problems.io import (
    instance_from_json,
    instance_to_json,
    load_instance,
    load_reference,
    reference_from_json,
    reference_to_json,
    ReferenceSolution,
    save_instance,
    save_reference,
    solution_from_dict,
    solution_to_dict,
)
from cobench.problems.types import (
    CLUSTERED,
    GM2,
    ROUTING_KINDS,
    Distribution,
    GenConfig,
    GraphFamily,
    GraphInstance,
    Instance,
    JobOrder,
    MachineSchedules,
    MAX_COORD,
    MIXED,
    ProblemKind,
    Route,
    RouteSet,
    RoutingInstance,
    SOLUTION_TYPE_BY_KIND,
    UNIFORM,
    VertexSet,
)

from cobench.tai.features import routing_features
from cobench.verify import objective

from conftest import ALL_KINDS, make_instance

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Determinism and identity


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_generation_deterministic(kind):
    cfg = GenConfig(seed=42)
    a = gen_instance(kind, cfg)
    b = gen_instance(kind, cfg)
    assert instance_to_json(a) == instance_to_json(b)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_different_seeds_differ(kind):
    a = gen_instance(kind, GenConfig(seed=1))
    b = gen_instance(kind, GenConfig(seed=2))
    assert instance_to_json(a) != instance_to_json(b)


def test_instance_id_format():
    inst = make_instance(ProblemKind.TSP, size=25, seed=3)
    assert inst.id == "tsp-n25-uniform-s3"
    gm = gen_instance(ProblemKind.TSP, GenConfig(size_range=(25, 25), seed=3, distribution=Distribution("gm", 3, 10)))
    assert gm.id == "tsp-n25-gm3_10-s3"
    graph = gen_instance(ProblemKind.MIS, GenConfig(size_range=(12, 12), seed=5, graph_family=GraphFamily.ER))
    assert graph.id == "mis-n12-er-s5"
    sched = gen_instance(ProblemKind.JSSP, GenConfig(size_range=(5, 5), seed=1))
    assert sched.id == "jssp-n5-5x5-s1"


def test_gen_batch_seeds_consecutive():
    batch = gen_batch(ProblemKind.TSP, GenConfig(size_range=(15, 15), seed=10), 5)
    assert [inst.seed for inst in batch] == [10, 11, 12, 13, 14]
    assert len({inst.id for inst in batch}) == 5
    # Each batch element equals a standalone generation at that seed.
    solo = gen_instance(ProblemKind.TSP, GenConfig(size_range=(15, 15), seed=12))
    assert instance_to_json(batch[2]) == instance_to_json(solo)


# ---------------------------------------------------------------------------
# Routing coordinate distributions


def test_uniform_coords_in_range():
    inst = make_instance(ProblemKind.TSP, size=80, seed=11)
    for x, y in inst.payload.coords:
        assert 1 <= x <= 1000 and 1 <= y <= 1000
        assert x == int(x) and y == int(y)  # integer grid


def test_size_range_respected():
    for seed in range(5):
        inst = gen_instance(ProblemKind.TSP, GenConfig(size_range=(10, 100), seed=seed))
        assert 10 <= inst.payload.n <= 100


def _meta_centroids(inst):
    return [
        tuple(float(c) for c in pair.split(","))
        for pair in inst.meta["centroids"].split(";")
    ]


def test_clustered_points_near_centroids():
    inst = gen_instance(
        ProblemKind.TSP, GenConfig(size_range=(60, 60), seed=9, distribution=CLUSTERED)
    )
    cents = _meta_centroids(inst)
    assert len(cents) == 7
    # Every point sits within 3.5 sigma of some centroid (sigma = 0.1 span;
    # +1.5 covers coordinate rounding plus the 3-decimal centroid meta).
    span = 999.0
    radius = 3.5 * 0.1 * span + 1.5
    for p in inst.payload.coords:
        assert min(math.dist(p, c) for c in cents) <= radius


def test_mixed_is_half_uniform_half_clustered():
    inst = gen_instance(
        ProblemKind.TSP, GenConfig(size_range=(61, 61), seed=4, distribution=MIXED)
    )
    assert inst.meta["distribution"] == "mixed"
    cents = _meta_centroids(inst)
    span = 999.0
    radius = 3.5 * 0.1 * span + 1.5
    clustered_part = inst.payload.coords[math.ceil(61 / 2):]
    assert len(clustered_part) == 30
    for p in clustered_part:
        assert min(math.dist(p, c) for c in cents) <= radius


def test_gm_distribution_clusters():
    dist = Distribution("gm", 2, 5)
    inst = gen_instance(ProblemKind.TSP, GenConfig(size_range=(50, 50), seed=2, distribution=dist))
    assert inst.meta["distribution"] == "gm2_5"
    assert inst.id.endswith("-gm2_5-s2")
    for x, y in inst.payload.coords:
        assert 1 <= x <= 1000 and 1 <= y <= 1000


def test_distribution_parse():
    assert Distribution.parse("uniform") is UNIFORM
    assert Distribution.parse("gm(4, 8)") == Distribution("gm", 4, 8)
    assert Distribution.parse("clustered") is CLUSTERED
    with pytest.raises(ValueError):
        Distribution.parse("pareto")


# ---------------------------------------------------------------------------
# OP specifics


def test_op_limit_matches_meta_fraction():
    inst = make_instance(ProblemKind.OP, size=20, seed=6)
    p = inst.payload
    u = float(inst.meta["budget_fraction"])
    assert 0.5 <= u <= 0.7
    l_nn = nearest_neighbor_tour_length(p.coords)
    assert p.distance_limit == pytest.approx(u * l_nn, rel=1e-6)
    assert p.prizes[0] == 0
    assert all(1 <= z <= 10 for z in p.prizes[1:])


def test_op_distance_limit_formula():
    # Collinear depot layout: NN tour 0 -> 1 -> 2 -> 0 has length 1 + 2 + 3 = 6.
    coords = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
    assert nearest_neighbor_tour_length(coords) == pytest.approx(6.0)


def test_nearest_neighbor_ties_take_lower_id():
    # 1 and 2 are equidistant from 0; the tour must visit 1 first.
    coords = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)]
    assert nearest_neighbor_tour_length(coords) == pytest.approx(1 + 2 + 1)


# ---------------------------------------------------------------------------
# CVRP specifics


def test_default_capacity_formula():
    assert default_capacity([0, 4, 4, 4, 4]) == 30          # floor at 30
    assert default_capacity([0] + [8] * 40) == 80           # 8 * 40 / 4
    assert default_capacity([0, 6, 7]) == 30


def test_cvrp_capacity_serves_max_demand():
    inst = make_instance(ProblemKind.CVRP, size=40, seed=1)
    p = inst.payload
    assert p.demands[0] == 0
    assert p.capacity >= max(p.demands)
    assert p.capacity == default_capacity(p.demands)


def test_cvrp_capacity_override():
    inst = gen_instance(ProblemKind.CVRP, GenConfig(size_range=(20, 20), seed=1, capacity=50))
    assert inst.payload.capacity == 50
    with pytest.raises(ValueError):
        gen_instance(ProblemKind.CVRP, GenConfig(size_range=(20, 20), seed=1, capacity=5))


# ---------------------------------------------------------------------------
# Graph generation


def test_er_graph_meta_and_edges():
    inst = gen_instance(
        ProblemKind.MIS, GenConfig(size_range=(30, 30), seed=8, graph_family=GraphFamily.ER)
    )
    p = inst.payload
    assert inst.meta["family"] == "er"
    assert 0.1 <= float(inst.meta["p"]) <= 0.4
    for u, v in p.edges:
        assert 0 <= u < v < 30  # normalized, no self-loops
    assert len(set(p.edges)) == len(p.edges)


def test_ba_graph_meta():
    inst = gen_instance(
        ProblemKind.MVC, GenConfig(size_range=(30, 30), seed=8, graph_family=GraphFamily.BA)
    )
    m = int(inst.meta["m"])
    assert inst.meta["family"] == "ba"
    assert 1 <= m <= 4
    # BA on n nodes with attachment m has m*(n - m) edges.
    assert len(inst.payload.edges) == m * (30 - m)


@pytest.mark.parametrize("kind", [ProblemKind.MIS, ProblemKind.MVC])
def test_tiny_graphs_generate(kind):
    # The drawn BA attachment (1 to 4) is capped at n - 1.
    for n in (2, 3, 4):
        for seed in range(200):
            inst = gen_instance(kind, GenConfig(size_range=(n, n), seed=seed))
            if inst.meta["family"] == "ba":
                m = int(inst.meta["m"])
                assert 1 <= m < n and len(inst.payload.edges) == m * (n - m)


def _nx_edges(g):
    return sorted((min(u, v), max(u, v)) for u, v in g.edges())


@pytest.mark.parametrize("n", [2, 10, 30, 100])
def test_graph_generators_match_networkx(n):
    nx = pytest.importorskip("networkx")
    for seed in range(20):
        for p in (0.0, 0.1, 0.25, 0.4, 1.0):
            assert sorted(_er_edges(n, p, seed)) == _nx_edges(nx.gnp_random_graph(n, p, seed=seed))
        for m in range(1, min(n, 5)):
            assert sorted(_ba_edges(n, m, seed)) == _nx_edges(
                nx.barabasi_albert_graph(n, m, seed=seed)
            )


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (10, 0)])
def test_ba_rejects_m_outside_one_to_n(n, m):
    with pytest.raises(ValueError, match=f"m = {m}, n = {n}"):
        _ba_edges(n, m, seed=0)


def test_graph_family_draw_is_seeded():
    seen = {gen_instance(ProblemKind.MIS, GenConfig(size_range=(12, 12), seed=s)).meta["family"] for s in range(20)}
    assert seen == {"er", "ba"}


def test_adjacency_lists():
    from cobench.problems.types import GraphInstance

    g = GraphInstance(num_nodes=4, edges=((0, 1), (1, 2), (0, 3)))
    assert g.adjacency() == ((1, 3), (0, 2), (1,), (0,))


# ---------------------------------------------------------------------------
# Scheduling generation


def test_pfsp_shapes():
    inst = gen_instance(ProblemKind.PFSP, GenConfig(size_range=(5, 20), seed=3))
    p = inst.payload
    assert 5 <= p.num_jobs <= 20 and 5 <= p.num_machines <= 20
    assert all(1 <= t <= 100 for row in p.ptimes for t in row)
    assert p.machine_order is None
    assert inst.meta == {"jobs": str(p.num_jobs), "machines": str(p.num_machines)}


def test_jssp_machine_order_rows_are_permutations():
    inst = gen_instance(ProblemKind.JSSP, GenConfig(size_range=(5, 20), seed=3))
    p = inst.payload
    m = p.num_machines
    assert len(p.machine_order) == p.num_jobs
    for row in p.machine_order:
        assert sorted(row) == list(range(m))


# ---------------------------------------------------------------------------
# JSON round-trips


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_instance_json_round_trip(kind, tmp_path):
    inst = make_instance(kind, seed=13)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back == inst
    path = save_instance(inst, tmp_path / "inst.json")
    assert load_instance(path) == inst


def test_instance_json_schema_guard():
    inst = make_instance(ProblemKind.TSP, size=10, seed=0)
    doc = json.loads(instance_to_json(inst))
    doc["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        instance_from_json(json.dumps(doc))


def test_routing_instance_files_unchanged():
    # Node 0 is the depot and every file still says so: the JSON of seeded
    # TSP, OP and CVRP instances, "depot_index": 0 included, is pinned.
    h = hashlib.sha256()
    for kind in ROUTING_KINDS:
        for seed in range(6):
            dist = {"distribution": GM2} if seed % 2 else {}
            cfg = GenConfig(seed=seed, size_range=(5, 40), **dist)
            h.update(instance_to_json(gen_instance(kind, cfg)).encode())
    assert h.hexdigest()[:16] == "4ec1fba558e118b7"


@pytest.mark.parametrize("kind", ROUTING_KINDS)
def test_depot_index_zero_or_absent_loads(kind):
    inst = make_instance(kind, size=8, seed=3)
    doc = json.loads(instance_to_json(inst))
    assert doc["payload"]["depot_index"] == 0
    assert instance_from_json(json.dumps(doc)) == inst
    del doc["payload"]["depot_index"]
    assert instance_from_json(json.dumps(doc)) == inst


@pytest.mark.parametrize("value", [3, -1, 1.5, True])
def test_other_depot_index_is_rejected(value):
    doc = json.loads(instance_to_json(make_instance(ProblemKind.CVRP, size=12, seed=3)))
    doc["payload"]["depot_index"] = value
    with pytest.raises(ValueError, match="depot_index"):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "kind, path, value",
    [
        (ProblemKind.CVRP, ("demands", 2), 2.9),
        (ProblemKind.CVRP, ("capacity",), 30.7),
        (ProblemKind.CVRP, ("demands", 1), "3"),
        (ProblemKind.OP, ("prizes", 1), True),
        (ProblemKind.OP, ("prizes", 1), math.nan),
        (ProblemKind.MIS, ("num_nodes",), 9.5),
        (ProblemKind.MIS, ("edges", 0, 1), 1.25),
        (ProblemKind.JSSP, ("ptimes", 0, 0), True),
        (ProblemKind.JSSP, ("ptimes", 0, 0), 0.5),
        (ProblemKind.JSSP, ("machine_order", 0, 0), "0"),
        (ProblemKind.PFSP, ("ptimes", 1, 2), 7.000001),
    ],
)
def test_non_integral_integer_field_is_rejected(kind, path, value):
    doc = json.loads(instance_to_json(make_instance(kind, size=10, seed=2)))
    *parents, last = path
    target = doc["payload"]
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError, match=f"{path[0]}: expected an integer"):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value",
    [
        (("coords", 1, 0), True),
        (("coords", 1, 1), "7"),
        (("coords", 2, 0), None),
        (("coords", 2), "12"),
        (("distance_limit",), "1e3"),
        (("distance_limit",), False),
        (("distance_limit",), [5.0]),
    ],
)
def test_non_numeric_float_field_is_rejected(path, value):
    doc = json.loads(instance_to_json(make_instance(ProblemKind.OP, size=10, seed=2)))
    *parents, last = path
    target = doc["payload"]
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError, match=f"{path[0]}: expected a number"):
        instance_from_json(json.dumps(doc))


def test_float_fields_load_ints_floats_and_an_infinite_limit():
    inst = make_instance(ProblemKind.OP, size=10, seed=2)
    doc = json.loads(instance_to_json(inst))
    doc["payload"]["coords"][0] = [3, 4.5]
    doc["payload"]["distance_limit"] = math.inf  # json writes Infinity
    back = instance_from_json(json.dumps(doc))
    assert back.payload.coords[0] == (3.0, 4.5)
    assert all(type(v) is float for xy in back.payload.coords for v in xy)
    assert back.payload.distance_limit == math.inf
    assert back.payload.coords[1:] == inst.payload.coords[1:]
    assert instance_to_json(instance_from_json(instance_to_json(back))) == instance_to_json(back)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_integral_floats_load_as_ints(kind):
    inst = make_instance(kind, size=10, seed=2)
    doc = json.loads(instance_to_json(inst))

    def floats(x, key=None):
        if isinstance(x, dict):
            return {k: floats(v, k) for k, v in x.items()}
        if isinstance(x, list):
            return [floats(v, key) for v in x]
        return float(x) if type(x) is int and key != "coords" else x

    doc["payload"] = floats(doc["payload"])
    back = instance_from_json(json.dumps(doc))
    assert back == inst
    assert instance_to_json(back) == instance_to_json(inst)


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "route", "nodes": [0, 1.5, 0]},
        {"type": "routes", "routes": [[0, True, 0]]},
        {"type": "set", "vertices": [1, "2"]},
        {"type": "order", "jobs": [0, 2.2, 1]},
        {"type": "schedule", "sequences": [[0, 1], [1, 0.1]]},
    ],
)
def test_reference_ids_must_be_integers(doc):
    with pytest.raises(ValueError, match="expected an integer"):
        solution_from_dict(doc)


def test_reference_ids_may_be_integral_floats():
    assert solution_from_dict({"type": "route", "nodes": [0.0, 2.0, 0]}) == Route((0, 2, 0))
    assert solution_from_dict({"type": "set", "vertices": [3.0, 1]}) == VertexSet.of([1, 3])


def test_solution_dict_round_trips():
    sols = [
        Route((0, 2, 1, 0)),
        RouteSet(((0, 1, 0), (0, 2, 3, 0))),
        VertexSet.of([3, 1, 4]),
        JobOrder((2, 0, 1)),
        MachineSchedules(((0, 1), (1, 0))),
    ]
    for sol in sols:
        assert solution_from_dict(solution_to_dict(sol)) == sol


def test_reference_round_trip(tmp_path):
    inst = make_instance(ProblemKind.TSP, size=10, seed=0)
    ref = ReferenceSolution(
        instance_id=inst.id,
        solution=Route(tuple(range(10)) + (0,)),
        objective=123.45,
        source="heuristic:nn",
        validated=True,
    )
    text = reference_to_json(ref, provenance={"tool": "test"})
    back = reference_from_json(text)
    assert back == ref
    path = save_reference(ref, tmp_path / "ref.json")
    assert load_reference(path) == back


def test_reference_validated_defaults_true():
    inst = make_instance(ProblemKind.MIS, size=10, seed=0)
    ref = ReferenceSolution(inst.id, VertexSet.of([0]), 1.0, "oracle")
    doc = json.loads(reference_to_json(ref))
    del doc["validated"]
    assert reference_from_json(json.dumps(doc)).validated is True


# One solution per kind, with the object its reference file stores: the
# type's tag and its one field, a VertexSet's ids sorted.
_STORED_SOLUTIONS = [
    (ProblemKind.TSP, Route((0, 2, 1, 0)), {"type": "route", "nodes": [0, 2, 1, 0]}),
    (ProblemKind.OP, Route((0, 3)), {"type": "route", "nodes": [0, 3]}),
    (ProblemKind.CVRP, RouteSet(((0, 2, 1, 0),)), {"type": "routes", "routes": [[0, 2, 1, 0]]}),
    (ProblemKind.MIS, VertexSet.of([4, 1, 3]), {"type": "set", "vertices": [1, 3, 4]}),
    (ProblemKind.MVC, VertexSet(frozenset()), {"type": "set", "vertices": []}),
    (ProblemKind.PFSP, JobOrder((2, 0, 1)), {"type": "order", "jobs": [2, 0, 1]}),
    (
        ProblemKind.JSSP,
        MachineSchedules(((1, 0), (0, 1))),
        {"type": "schedule", "sequences": [[1, 0], [0, 1]]},
    ),
]


@pytest.mark.parametrize(
    "kind, sol, stored", _STORED_SOLUTIONS, ids=[kind.value for kind, _, _ in _STORED_SOLUTIONS]
)
def test_reference_file_bytes_round_trip(kind, sol, stored):
    assert isinstance(sol, SOLUTION_TYPE_BY_KIND[kind])
    ref = ReferenceSolution(f"{kind.value}-x", sol, 12.5, "heuristic:test")
    text = reference_to_json(ref, provenance={"tool": "test"})
    doc = {
        "schema_version": 1,
        "instance_id": f"{kind.value}-x",
        "solution": stored,
        "objective": 12.5,
        "source": "heuristic:test",
        "validated": True,
        "provenance": {"tool": "test"},
    }
    assert text == json.dumps(doc, indent=2) + "\n"
    back = reference_from_json(text)
    assert back == ref
    assert reference_to_json(back, provenance={"tool": "test"}) == text


def test_solution_dict_writes_a_subclass_as_its_solution_type():
    @dataclass(frozen=True)
    class LabelledRoute(Route):
        label: str = "x"

    assert solution_to_dict(LabelledRoute((0, 1, 0))) == {"type": "route", "nodes": [0, 1, 0]}


@pytest.mark.parametrize("tag", ["path", "Route", 5, None, ["route"], {"route": 1}])
def test_unknown_solution_tag_is_a_value_error(tag):
    with pytest.raises(ValueError, match="^unknown solution type "):
        solution_from_dict({"type": tag, "nodes": [0, 1, 0]})


@pytest.mark.parametrize("version", [99, "1", True, None], ids=["99", "string", "bool", "missing"])
def test_reference_json_schema_guard(version):
    doc = json.loads(reference_to_json(ReferenceSolution("t", Route((0, 1, 0)), 2.0, "oracle")))
    doc["schema_version"] = version
    if version is None:
        del doc["schema_version"]
    with pytest.raises(ValueError, match="unsupported schema_version"):
        reference_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# Nearest nodes: the one pass behind the prompts' neighbour hints and ACO's
# candidate lists


def _check_nearest(coords, ks):
    d = distance_matrix(coords)
    want = oracles.nearest_neighbours(coords, max(ks))
    for k in ks:
        ids, dists = nearest_nodes(coords, k)
        kk = min(k, len(coords) - 1)
        assert ids.shape == dists.shape == (len(coords), kk)
        assert np.sort(ids, axis=1).tolist() == oracles.candidate_lists(d, k).tolist()
        assert routing_features(RoutingInstance(coords), k) == tuple(row[:k] for row in want)


def test_nearest_nodes_match_both_oracles():
    # Integer points in a box that shrinks with n, so distance ties and
    # coincident nodes are common.
    for n in range(2, 151):
        rng = np.random.default_rng(n)
        box = 1 + n // 3
        coords = tuple((float(x), float(y)) for x, y in rng.integers(0, box, size=(n, 2)))
        _check_nearest(coords, (1, 2, 5, 20))


def test_nearest_nodes_coincident_nodes():
    # Nodes 0, 2 and 5 coincide, nodes 1 and 3 too: a coincident node comes
    # first, at distance 0, lower id first.
    coords = ((1.0, 1.0), (4.0, 5.0), (1.0, 1.0), (4.0, 5.0), (9.0, 9.0), (1.0, 1.0))
    _check_nearest(coords, (1, 2, 3, 5, 7))
    ids, dists = nearest_nodes(coords, 3)
    assert ids[0].tolist() == [2, 5, 1] and dists[0].tolist() == [0.0, 0.0, 5.0]
    assert ids[3].tolist() == [1, 0, 2]
    every = ((2.0, 3.0),) * 4  # all on one spot
    assert nearest_nodes(every, 2)[0].tolist() == [[1, 2], [0, 2], [0, 1], [0, 1]]


def test_nearest_nodes_spans_two_row_blocks():
    rng = np.random.default_rng(BLOCK_ROWS)
    coords = tuple((float(x), float(y)) for x, y in rng.integers(0, 30, size=(BLOCK_ROWS + 1, 2)))
    _check_nearest(coords, (1, 4, 20))


# ---------------------------------------------------------------------------
# Payload validation


def test_payload_validation_errors():
    with pytest.raises(ValueError):
        RoutingInstance(coords=((0.0, 0.0),))  # < 2 nodes
    with pytest.raises(ValueError):
        RoutingInstance(coords=((0.0, 0.0), (1.0, 1.0)), prizes=(0,))
    from cobench.problems.types import GraphInstance, SchedulingInstance

    for edges, message in (
        (((1, 1),), "self-loop on node 1"),
        (((0, 3),), "edge (0,3) out of range"),
        (((-1, 2),), "edge (-1,2) out of range"),
        (((2, 1),), "edge (2,1) not normalized as (lo, hi)"),
        (((0, 1), (1, 2), (0, 1)), "duplicate edge (0,1)"),
        # Several bad edges: the first in list order is named.
        (((0, 1), (2, 1), (1, 1), (0, 5), (0, 1)), "edge (2,1) not normalized as (lo, hi)"),
        (((0, 2), (0, 2), (0, 9), (2, 2)), "duplicate edge (0,2)"),
        (((1, 2), (0, 7), (1, 1)), "edge (0,7) out of range"),
        (((0, 1), (2, 2), (2, 1)), "self-loop on node 2"),
    ):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            GraphInstance(num_nodes=3, edges=edges)
    with pytest.raises(ValueError):
        SchedulingInstance(ptimes=((1, 2), (3,)))
    with pytest.raises(ValueError):
        SchedulingInstance(ptimes=((1, 0),))
    with pytest.raises(ValueError):
        SchedulingInstance(ptimes=((1, math.nan),))
    with pytest.raises(ValueError):
        Instance(kind=ProblemKind.OP, payload=RoutingInstance(coords=((0.0, 0.0), (1.0, 1.0))), id="x")
    with pytest.raises(TypeError):
        Instance(kind=ProblemKind.PFSP, payload=RoutingInstance(coords=((0.0, 0.0), (1.0, 1.0))), id="x")


def _edge_loop_outcome(num_nodes, edges):
    """GraphInstance's edge check as one loop, naming the first bad edge:
    None if the edges pass, else the error's type and message."""
    try:
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized as (lo, hi)")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return None


_END = st.one_of(st.integers(-2, 6), st.floats(-1, 7), st.booleans(), st.none())
_EDGE = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
    st.lists(_END, max_size=3).map(tuple),
    st.lists(st.integers(0, 5), min_size=2, max_size=2),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    num_nodes=st.integers(1, 6),
    edges=st.one_of(
        # Well-formed graphs, then any edges at all.
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] < e[1]))
        .map(sorted)
        .map(tuple),
        st.lists(_EDGE, max_size=6).map(tuple),
    ),
)
def test_graph_validation_equals_the_edge_loop(num_nodes, edges):
    want = _edge_loop_outcome(num_nodes, edges)
    try:
        GraphInstance(num_nodes=num_nodes, edges=edges)
        got = None
    except (TypeError, ValueError) as err:
        got = type(err), str(err)
    assert got == want


@pytest.mark.parametrize(
    "field, value",
    [
        ("coords", ((0.0, 0.0), (math.nan, 1.0), (2.0, 2.0))),
        ("coords", ((0.0, 0.0), (1.0, math.inf), (2.0, 2.0))),
        ("coords", ((0.0, -math.inf), (1.0, 1.0), (2.0, 2.0))),
        ("prizes", (0, math.nan, 1)),
        ("prizes", (0, 1, math.inf)),
        ("demands", (0, math.nan, 1)),
        ("demands", (0, -math.inf, 1)),
        ("capacity", math.nan),
        ("distance_limit", math.nan),
        # Finite, but its square overflows.
        ("coords", ((0.0, 0.0), (1e151, 1.0), (2.0, 2.0))),
        ("coords", ((0.0, 0.0), (1.0, -1e308), (2.0, 2.0))),
    ],
)
def test_routing_instance_rejects_non_finite_values(field, value):
    kwargs = {"coords": ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), field: value}
    with pytest.raises(ValueError, match="finite|positive"):
        RoutingInstance(**kwargs)


def test_routing_coordinates_at_the_bound_give_finite_distances():
    # The farthest pair at the bound is 2.8e150 apart: its squared distance,
    # 8e300, and a tour through it stay finite, with no numpy warning.
    m = MAX_COORD
    coords = ((-m, -m), (m, m), (m, -m))
    inst = Instance(kind=ProblemKind.TSP, id="far", payload=RoutingInstance(coords=coords))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(distance_matrix(coords)).all()
        assert math.isfinite(objective(inst, Route((0, 1, 2, 0))).value)


def test_routing_instance_allows_an_infinite_distance_limit():
    # No budget at all: the OP then collects every prize.
    p = RoutingInstance(coords=((0.0, 0.0), (1.0, 1.0)), prizes=(0, 1), distance_limit=math.inf)
    assert p.distance_limit == math.inf


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("prizes", (7, 1, 2), "prizes must be 0 at the depot, node 0"),
        ("prizes", (0, -7, 2), "prizes must be >= 0"),
        ("demands", (3, 1, 2), "demands must be 0 at the depot, node 0"),
        ("demands", (0, 1, -5), "demands must be >= 0"),
        ("demands", (0, 31, 2), "demand 31 exceeds the vehicle capacity 30"),
    ],
)
def test_routing_instance_enforces_its_depot_and_demand_contract(field, value, message):
    coords = ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))
    limit = {"capacity": 30} if field == "demands" else {"distance_limit": 5.0}
    with pytest.raises(ValueError, match=f"^{message}$"):
        RoutingInstance(coords=coords, **{field: value}, **limit)
    # At the edges: a zero prize or demand, and a demand equal to the capacity.
    RoutingInstance(coords=coords, demands=(0, 0, 30), capacity=30)
    RoutingInstance(coords=coords, prizes=(0, 0, 3), distance_limit=5.0)


def test_negative_demand_cannot_hide_an_overloaded_route():
    # One customer of demand -1000 would let a single route carry 120 units
    # against a capacity of 30 and be called feasible; the payload refuses it,
    # from code and from a file alike.
    coords = tuple((float(i), 0.0) for i in range(5))
    with pytest.raises(ValueError, match="^demands must be >= 0$"):
        RoutingInstance(coords=coords, demands=(0, 40, 40, 40, -1000), capacity=30)
    inst = gen_instance(ProblemKind.CVRP, GenConfig(size_range=(5, 5), seed=0))
    doc = json.loads(instance_to_json(inst))
    doc["payload"]["demands"][-1] = -1000
    with pytest.raises(ValueError, match="demands must be >= 0"):
        instance_from_json(json.dumps(doc))


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(size_range=(1, 5))
    with pytest.raises(ValueError):
        GenConfig(size_range=(10, 5))
    with pytest.raises(ValueError):
        Distribution("gm", 0, 5)


# ---------------------------------------------------------------------------
# Benchmark formats


def test_parse_berlin52():
    inst = parse_tsplib(DATA / "berlin52.tsp")
    assert inst.kind is ProblemKind.TSP
    assert inst.id == "berlin52"
    assert inst.payload.n == 52
    assert inst.payload.coords[0] == (565.0, 575.0)
    assert inst.payload.coords[51] == (1740.0, 245.0)
    assert inst.meta["source"] == "tsplib"


def test_parse_tsplib_rejects_non_euclidean():
    bad = "NAME: x\nTYPE: TSP\nEDGE_WEIGHT_TYPE: GEO\nNODE_COORD_SECTION\n1 0 0\nEOF\n"
    with pytest.raises(ValueError, match="EDGE_WEIGHT_TYPE"):
        parse_tsplib(bad)
    atsp = "NAME: x\nTYPE: ATSP\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n"
    with pytest.raises(ValueError, match="TYPE"):
        parse_tsplib(atsp)


def test_parse_tsplib_dimension_mismatch():
    bad = (
        "NAME: x\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
    )
    with pytest.raises(ValueError, match="DIMENSION"):
        parse_tsplib(bad)


def test_a_one_line_string_is_read_as_a_path():
    # A mistyped path is named as missing, not read as file text.
    missing = str(DATA / "berlin52.tsx")
    for parse_file in (parse_tsplib, parse_taillard):
        with pytest.raises(FileNotFoundError, match="berlin52.tsx"):
            parse_file(missing)
    assert parse_tsplib(str(DATA / "berlin52.tsp")) == parse_tsplib(DATA / "berlin52.tsp")


def test_taillard_round_trip():
    inst = make_instance(ProblemKind.JSSP, size=6, seed=21)
    text = write_taillard(inst)
    back = parse_taillard(text)
    assert back.payload == inst.payload


def test_parse_taillard_skips_prose_header():
    text = (
        "Nb of jobs, Nb of Machines, Time seed, Machine seed\n"
        "2 2 123 456\n"
        "Times\n"
        "3 2\n"
        "1 4\n"
        "Machines\n"
        "1 2\n"
        "2 1\n"
    )
    inst = parse_taillard(text)
    p = inst.payload
    assert (p.num_jobs, p.num_machines) == (2, 2)
    assert p.ptimes == ((3, 2), (1, 4))
    assert p.machine_order == ((0, 1), (1, 0))


def test_write_taillard_rejects_non_jssp():
    inst = make_instance(ProblemKind.PFSP, size=5, seed=0)
    with pytest.raises(ValueError):
        write_taillard(inst)
