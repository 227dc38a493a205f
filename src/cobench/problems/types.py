"""Core problem, solution, and configuration types.

Every instance is a frozen value object: generators and parsers validate on
construction, downstream code (encoding, verification, heuristics) treats
instances as immutable and hashable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
from typing import Mapping, Optional, Tuple, Union


class ProblemKind(str, Enum):
    """The seven supported NP-hard problems."""

    TSP = "tsp"
    OP = "op"
    CVRP = "cvrp"
    MIS = "mis"
    MVC = "mvc"
    PFSP = "pfsp"
    JSSP = "jssp"


class Sense(str, Enum):
    MIN = "min"
    MAX = "max"


# OP collects prizes and MIS grows a set: both maximize. Everything else
# minimizes (tour length, total distance, cover size, makespan).
SENSE_BY_KIND: Mapping[ProblemKind, Sense] = {
    ProblemKind.TSP: Sense.MIN,
    ProblemKind.OP: Sense.MAX,
    ProblemKind.CVRP: Sense.MIN,
    ProblemKind.MIS: Sense.MAX,
    ProblemKind.MVC: Sense.MIN,
    ProblemKind.PFSP: Sense.MIN,
    ProblemKind.JSSP: Sense.MIN,
}

ROUTING_KINDS = (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP)
GRAPH_KINDS = (ProblemKind.MIS, ProblemKind.MVC)
SCHEDULING_KINDS = (ProblemKind.PFSP, ProblemKind.JSSP)


# The largest coordinate magnitude a routing instance accepts: any squared
# distance between two such points, and any route length, stays finite.
MAX_COORD = 1e150


@dataclass(frozen=True)
class RoutingInstance:
    """Euclidean node-based instance for TSP, OP, and CVRP.

    coords are 2D points; node 0 is the depot for OP/CVRP, which every
    solver, prompt and the scorer take as given. OP carries prizes
    and a route-length budget, CVRP carries demands and a vehicle capacity.
    Coordinates must be at most MAX_COORD in absolute value, prizes and
    demands finite, non-negative and zero at the depot, no demand above the
    capacity, and the capacity and distance limit positive; an infinite
    distance limit means no budget.
    """

    coords: Tuple[Tuple[float, float], ...]
    prizes: Optional[Tuple[int, ...]] = None          # OP only, prizes[0] == 0
    demands: Optional[Tuple[int, ...]] = None         # CVRP only, demands[0] == 0
    capacity: Optional[int] = None                    # CVRP only, > 0
    distance_limit: Optional[float] = None            # OP only, > 0

    def __post_init__(self) -> None:
        if len(self.coords) < 2:
            raise ValueError("routing instance needs at least 2 nodes")
        # A NaN or infinite coordinate fails `<=` as well.
        if not all(abs(c) <= MAX_COORD for c in chain.from_iterable(self.coords)):
            raise ValueError(f"coords must be finite and at most {MAX_COORD:g} in absolute value")
        for name in ("prizes", "demands"):
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) != len(self.coords):
                raise ValueError(f"{name} length must match coords")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite")
            if values[0] != 0:
                raise ValueError(f"{name} must be 0 at the depot, node 0")
            if min(values) < 0:
                raise ValueError(f"{name} must be >= 0")
        # `not x > 0` also rejects NaN.
        if self.capacity is not None and not self.capacity > 0:
            raise ValueError("capacity must be positive")
        if self.capacity is not None and self.demands is not None:
            if max(self.demands) > self.capacity:
                raise ValueError(
                    f"demand {max(self.demands)} exceeds the vehicle capacity {self.capacity}"
                )
        if self.distance_limit is not None and not self.distance_limit > 0:
            raise ValueError("distance limit must be positive")

    @property
    def n(self) -> int:
        return len(self.coords)


def _edges_ok(edges, n: int) -> bool:
    """Every edge is a (lo, hi) pair with 0 <= lo < hi < n, and none repeats,
    checked in whole-list passes. False when any check fails or cannot run
    (an edge that is no pair, an unhashable or uncomparable edge)."""
    try:
        us, vs = zip(*edges, strict=True)  # strict: every edge is a pair
        return (
            all(map(operator.lt, us, vs))
            and min(us) >= 0
            and max(vs) < n
            and len(set(edges)) == len(edges)
        )
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class GraphInstance:
    """Undirected graph for MIS/MVC. Edges are normalized (lo, hi) pairs."""

    num_nodes: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("graph needs at least 1 node")
        if not self.edges or _edges_ok(self.edges, self.num_nodes):
            return
        # Name the first bad edge.
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized as (lo, hi)")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def n(self) -> int:
        return self.num_nodes

    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Sorted neighbor lists per node."""
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)


@dataclass(frozen=True)
class SchedulingInstance:
    """Job/machine instance for PFSP and JSSP.

    ptimes[j][i]: PFSP -> processing time of job j on machine i;
    JSSP -> duration of job j's i-th operation, executed on machine_order[j][i].
    machine_order rows are permutations of the machine ids (JSSP only).
    """

    ptimes: Tuple[Tuple[int, ...], ...]
    machine_order: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if not self.ptimes or not self.ptimes[0]:
            raise ValueError("ptimes must be a non-empty J x M matrix")
        m = len(self.ptimes[0])
        for row in self.ptimes:
            if len(row) != m:
                raise ValueError("ragged ptimes matrix")
            if not all(t > 0 for t in row):  # also rejects NaN
                raise ValueError("processing times must be positive")
        if self.machine_order is not None:
            if len(self.machine_order) != len(self.ptimes):
                raise ValueError("machine_order must have one row per job")
            for row in self.machine_order:
                if sorted(row) != list(range(m)):
                    raise ValueError("machine_order rows must be permutations of machines")

    @property
    def num_jobs(self) -> int:
        return len(self.ptimes)

    @property
    def num_machines(self) -> int:
        return len(self.ptimes[0])


Payload = Union[RoutingInstance, GraphInstance, SchedulingInstance]

PAYLOAD_TYPE_BY_KIND: Mapping[ProblemKind, type] = {
    **dict.fromkeys(ROUTING_KINDS, RoutingInstance),
    **dict.fromkeys(GRAPH_KINDS, GraphInstance),
    **dict.fromkeys(SCHEDULING_KINDS, SchedulingInstance),
}


@dataclass(frozen=True)
class Instance:
    """A problem instance: kind, payload, stable id, and provenance metadata."""

    kind: ProblemKind
    payload: Payload
    id: str
    seed: Optional[int] = None
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = PAYLOAD_TYPE_BY_KIND[self.kind]
        if not isinstance(self.payload, expected):
            raise TypeError(f"{self.kind.value} expects payload {expected.__name__}")
        p = self.payload
        if self.kind is ProblemKind.OP and (p.prizes is None or p.distance_limit is None):
            raise ValueError("OP instance needs prizes and a distance limit")
        if self.kind is ProblemKind.CVRP and (p.demands is None or p.capacity is None):
            raise ValueError("CVRP instance needs demands and a capacity")
        if self.kind is ProblemKind.JSSP and p.machine_order is None:
            raise ValueError("JSSP instance needs machine_order")

    @property
    def sense(self) -> Sense:
        return SENSE_BY_KIND[self.kind]


# ---------------------------------------------------------------------------
# Solutions


@dataclass(frozen=True)
class Route:
    """Single route for TSP/OP. TSP routes close (first == last); OP routes
    start at the depot and may or may not return."""

    nodes: Tuple[int, ...]


@dataclass(frozen=True)
class RouteSet:
    """CVRP solution: one route per vehicle, each starting/ending at depot 0."""

    routes: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class VertexSet:
    """MIS/MVC solution: a set of vertex ids."""

    vertices: frozenset[int]

    @staticmethod
    def of(ids) -> "VertexSet":
        return VertexSet(frozenset(int(i) for i in ids))


@dataclass(frozen=True)
class JobOrder:
    """PFSP solution: a permutation of job ids (0-based internally)."""

    jobs: Tuple[int, ...]


@dataclass(frozen=True)
class MachineSchedules:
    """JSSP solution: per machine, the order in which jobs are processed."""

    sequences: Tuple[Tuple[int, ...], ...]


Solution = Union[Route, RouteSet, VertexSet, JobOrder, MachineSchedules]

# Each solution type's tag: a reference file holds {"type": tag, <the
# type's one field>: ids}, and an answer label is the tag capitalized.
SOLUTION_TAGS: Mapping[type, str] = {
    Route: "route",
    RouteSet: "routes",
    VertexSet: "set",
    JobOrder: "order",
    MachineSchedules: "schedule",
}

# The solutions whose ids sit in rows: one route per vehicle, one sequence
# per machine. Their answers nest one list level deeper than the others.
NESTED_SOLUTION_TYPES = (RouteSet, MachineSchedules)

SOLUTION_TYPE_BY_KIND: Mapping[ProblemKind, type] = {
    ProblemKind.TSP: Route,
    ProblemKind.OP: Route,
    ProblemKind.CVRP: RouteSet,
    ProblemKind.MIS: VertexSet,
    ProblemKind.MVC: VertexSet,
    ProblemKind.PFSP: JobOrder,
    ProblemKind.JSSP: MachineSchedules,
}


def solution_ids(sol: Solution) -> list:
    """The ids in `sol`'s one field (a subclass's first), in canonical
    order: one list per row of a nested solution, a VertexSet's sorted."""
    ids = getattr(sol, fields(sol)[0].name)
    if isinstance(sol, NESTED_SOLUTION_TYPES):
        return [list(row) for row in ids]
    return sorted(ids) if isinstance(sol, VertexSet) else list(ids)


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    sense: Sense


# ---------------------------------------------------------------------------
# Generation configuration


@dataclass(frozen=True)
class Distribution:
    """Spatial distribution of routing coordinates.

    name: uniform | gm | clustered | mixed. gm takes (clusters, spread) where
    spread l maps to a Gaussian sigma of span/(2*l) around each center.
    """

    name: str
    clusters: int = 0
    spread: int = 0

    def __post_init__(self) -> None:
        if self.name not in ("uniform", "gm", "clustered", "mixed"):
            raise ValueError(f"unknown distribution {self.name!r}")
        if self.name == "gm" and (self.clusters < 1 or self.spread < 1):
            raise ValueError("gm distribution needs clusters >= 1 and spread >= 1")

    @property
    def tag(self) -> str:
        if self.name == "gm":
            return f"gm{self.clusters}_{self.spread}"
        return self.name

    @staticmethod
    def parse(text: str) -> "Distribution":
        t = text.strip().lower()
        if t == "uniform":
            return UNIFORM
        if t == "gm2":
            return GM2
        if t == "gm3":
            return GM3
        if t == "clustered":
            return CLUSTERED
        if t == "mixed":
            return MIXED
        if t.startswith("gm(") and t.endswith(")"):
            c, l = (int(x) for x in t[3:-1].split(","))
            return Distribution("gm", c, l)
        raise ValueError(f"unknown distribution {text!r}")


UNIFORM = Distribution("uniform")
GM2 = Distribution("gm", 2, 5)
GM3 = Distribution("gm", 3, 10)
CLUSTERED = Distribution("clustered")
MIXED = Distribution("mixed")


class GraphFamily(str, Enum):
    ER = "er"   # Erdos-Renyi G(n, p)
    BA = "ba"   # Barabasi-Albert preferential attachment


@dataclass(frozen=True)
class GenConfig:
    """Instance generator configuration.

    size_range: node-count range for routing/graph kinds, and the range both
    J and M are drawn from for scheduling kinds. None picks the per-kind
    default: (10, 100) for node problems, (5, 20) for scheduling.
    """

    size_range: Optional[Tuple[int, int]] = None
    distribution: Distribution = UNIFORM
    seed: int = 0
    graph_family: Optional[GraphFamily] = None        # None: draw ER or BA
    er_prob_range: Tuple[float, float] = (0.1, 0.4)
    ba_attach_range: Tuple[int, int] = (1, 4)
    capacity: Optional[int] = None                    # CVRP override
    prize_range: Tuple[int, int] = (1, 10)
    demand_range: Tuple[int, int] = (1, 10)
    ptime_range: Tuple[int, int] = (1, 100)
    coord_range: Tuple[int, int] = (1, 1000)

    def __post_init__(self) -> None:
        if self.size_range is not None:
            lo, hi = self.size_range
            if lo < 2 or hi < lo:
                raise ValueError("size_range must satisfy 2 <= lo <= hi")
        for name in ("prize_range", "demand_range", "ptime_range", "coord_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi")

    def sizes_for(self, kind: ProblemKind) -> Tuple[int, int]:
        if self.size_range is not None:
            return self.size_range
        if kind in SCHEDULING_KINDS:
            return (5, 20)
        return (10, 100)
