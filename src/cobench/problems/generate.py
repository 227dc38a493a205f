"""Random instance generation for all seven problem kinds.

Generation is a pure function of (kind, config): the same GenConfig always
yields byte-identical serialized instances. All randomness flows through one
numpy Generator seeded from the config; graph edges come from a random.Random
seeded by one draw of it.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional, Tuple

import numpy as np

from .types import (
    GRAPH_KINDS,
    ROUTING_KINDS,
    Distribution,
    GenConfig,
    GraphFamily,
    GraphInstance,
    Instance,
    ProblemKind,
    RoutingInstance,
    SchedulingInstance,
)

# Fixed number of centroids for the out-of-distribution "clustered" layout.
CLUSTER_CENTROIDS = 7
CLUSTER_SIGMA = 0.1  # in units of the coordinate span
# An OP route budget is u times the nearest-neighbor tour length, u ~ U[lo, hi].
OP_BUDGET_FRACTION_RANGE = (0.5, 0.7)


# Rows per block of `nearest_nodes`; a block holds BLOCK_ROWS * n distances.
BLOCK_ROWS = 256


def _distances(
    rows_x: np.ndarray, rows_y: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Euclidean distances from each point (rows_x, rows_y) to each (x, y),
    from contiguous coordinate columns, with the squares summed in place."""
    d = rows_x[:, None] - x
    d *= d
    dy = rows_y[:, None] - y
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def _columns(coords) -> np.ndarray:
    """The x and y columns of the points, each contiguous: a (2, n) array."""
    return np.asarray(coords, dtype=float).T.copy()


def distance_matrix(coords) -> np.ndarray:
    """Dense symmetric Euclidean distance matrix."""
    x, y = _columns(coords)
    return _distances(x, y, x, y)


def nearest_nodes(coords, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Ids and distances of each node's min(k, n - 1) nearest other nodes, by
    ascending distance, ties to the lower id: two (n, min(k, n - 1)) arrays.
    One exact pass over blocks of rows, so no n x n table is held at once."""
    x, y = _columns(coords)
    n = len(x)
    kk = min(k, n - 1)
    blocks = []
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        d = _distances(x[lo:hi], y[lo:hi], x, y)
        d.reshape(-1)[lo :: n + 1] = np.inf  # never its own neighbour: row r, column lo + r
        # Every candidate within the row's kk-th distance, by row and then
        # distance; nonzero lists each row's ids ascending and lexsort is
        # stable, so the first kk of each row are exact at ties.
        kth = np.partition(d, kk - 1, axis=1)[:, kk - 1]
        rows, cols = np.nonzero(d <= kth[:, None])
        dist = d[rows, cols]
        order = np.lexsort((dist, rows))
        take = order[np.searchsorted(rows, np.arange(hi - lo))[:, None] + np.arange(kk)]
        blocks.append((cols[take], dist[take]))
    ids, dists = zip(*blocks)
    return np.concatenate(ids), np.concatenate(dists)


def _uniform_coords(rng: np.random.Generator, n: int, box: Tuple[int, int]) -> np.ndarray:
    lo, hi = box
    return rng.integers(lo, hi + 1, size=(n, 2)).astype(float)


def _gaussian_mixture_coords(
    rng: np.random.Generator, n: int, box: Tuple[int, int], clusters: int, spread: int
) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = box
    span = hi - lo
    centers = rng.uniform(lo, hi, size=(clusters, 2))
    assign = rng.integers(0, clusters, size=n)
    sigma = span / (2.0 * spread)
    pts = centers[assign] + rng.normal(0.0, sigma, size=(n, 2))
    pts = np.clip(np.rint(pts), lo, hi)
    return pts, centers


def _clustered_coords(
    rng: np.random.Generator, n: int, box: Tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    # Unit-square centroids with sigma-0.1 Gaussian clouds, affinely scaled to
    # the coordinate box. Clipping only ever moves a point toward its centroid
    # along each axis, so the 3.5-sigma containment used in tests is preserved.
    lo, hi = box
    span = hi - lo
    centroids = rng.uniform(0.0, 1.0, size=(CLUSTER_CENTROIDS, 2))
    assign = rng.integers(0, CLUSTER_CENTROIDS, size=n)
    pts = centroids[assign] + rng.normal(0.0, CLUSTER_SIGMA, size=(n, 2))
    scaled = lo + pts * span
    scaled = np.clip(np.rint(scaled), lo, hi)
    return scaled, lo + centroids * span


def _sample_coords(
    rng: np.random.Generator, n: int, dist: Distribution, box: Tuple[int, int]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Returns (coords, centroids-or-None). Centroids are kept for meta."""
    if dist.name == "uniform":
        return _uniform_coords(rng, n, box), None
    if dist.name == "gm":
        return _gaussian_mixture_coords(rng, n, box, dist.clusters, dist.spread)
    if dist.name == "clustered":
        return _clustered_coords(rng, n, box)
    if dist.name == "mixed":
        n_uniform = math.ceil(n / 2)
        uni = _uniform_coords(rng, n_uniform, box)
        clu, cents = _clustered_coords(rng, n - n_uniform, box)
        return np.vstack([uni, clu]), cents
    raise ValueError(f"unknown distribution {dist.name!r}")


def nearest_neighbor_tour(d: np.ndarray, start: int = 0) -> List[int]:
    """Greedy nearest-neighbour order of every node of distance matrix `d`,
    from `start`, not closed. Ties go to the lower node id."""
    n = d.shape[0]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    tour = [start]
    cur = start
    for _ in range(n - 1):
        row = np.where(visited, np.inf, d[cur])
        cur = int(np.argmin(row))  # argmin takes the first (lowest id) on ties
        visited[cur] = True
        tour.append(cur)
    return tour


def nearest_neighbor_tour_length(coords) -> float:
    """Length of the greedy nearest-neighbor closed tour from node 0.

    Ties go to the lower node id. Used to scale the OP route budget.
    """
    d = distance_matrix(coords)
    tour = nearest_neighbor_tour(d, 0) + [0]
    total = 0.0
    for a, b in zip(tour, tour[1:]):
        total += float(d[a, b])
    return total


def default_capacity(demands) -> int:
    """CVRP default capacity: max(30, round(mean(customer demands) * n / 4)),
    n counting customers. Yields a handful of routes on typical instances."""
    customer = [d for d in demands[1:]]
    mean = float(np.mean(customer)) if customer else 0.0
    return max(30, int(round(mean * len(customer) / 4.0)))


def _coords_meta(dist: Distribution, centroids: Optional[np.ndarray]) -> dict:
    meta = {"distribution": dist.tag}
    if centroids is not None:
        meta["centroids"] = ";".join(f"{x:.3f},{y:.3f}" for x, y in centroids)
    return meta


def _gen_routing(kind: ProblemKind, cfg: GenConfig, rng: np.random.Generator, n: int):
    coords_arr, centroids = _sample_coords(rng, n, cfg.distribution, cfg.coord_range)
    coords = tuple((float(x), float(y)) for x, y in coords_arr)
    meta = _coords_meta(cfg.distribution, centroids)

    if kind is ProblemKind.TSP:
        return RoutingInstance(coords=coords), meta

    if kind is ProblemKind.OP:
        lo, hi = cfg.prize_range
        prizes = rng.integers(lo, hi + 1, size=n)
        prizes[0] = 0  # depot carries no prize
        u = float(rng.uniform(*OP_BUDGET_FRACTION_RANGE))
        limit = u * nearest_neighbor_tour_length(coords_arr)
        meta["budget_fraction"] = f"{u:.6f}"
        return (
            RoutingInstance(
                coords=coords,
                prizes=tuple(int(p) for p in prizes),
                distance_limit=float(limit),
            ),
            meta,
        )

    # CVRP
    lo, hi = cfg.demand_range
    demands = rng.integers(lo, hi + 1, size=n)
    demands[0] = 0  # depot has no demand
    demands = tuple(int(q) for q in demands)
    capacity = cfg.capacity if cfg.capacity is not None else default_capacity(demands)
    if capacity < max(demands):
        raise ValueError(f"capacity {capacity} cannot serve max demand {max(demands)}")
    return RoutingInstance(coords=coords, demands=demands, capacity=int(capacity)), meta


def _er_edges(n: int, p: float, seed: int) -> list:
    """Erdős–Rényi G(n, p); the same edges as networkx.gnp_random_graph."""
    r = random.Random(seed)
    return [e for e in itertools.combinations(range(n), 2) if r.random() < p]


def _ba_edges(n: int, m: int, seed: int) -> list:
    """Barabási–Albert graph grown from the star on m + 1 nodes; the same edges
    as networkx.barabasi_albert_graph."""
    if not 1 <= m < n:
        raise ValueError(f"Barabási–Albert graph needs 1 <= m < n, got m = {m}, n = {n}")
    r = random.Random(seed)
    edges = [(0, v) for v in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))  # each node once per incident edge
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(r.choice(repeated))
        edges += [(t, source) for t in targets]
        repeated += list(targets) + [source] * m
    return edges


def _gen_graph(cfg: GenConfig, rng: np.random.Generator, n: int):
    family = cfg.graph_family
    if family is None:
        family = GraphFamily.ER if rng.integers(0, 2) == 0 else GraphFamily.BA
    graph_seed = int(rng.integers(0, 2**31 - 1))
    if family is GraphFamily.ER:
        p = float(rng.uniform(*cfg.er_prob_range))
        edges = _er_edges(n, p, graph_seed)
        meta = {"family": "er", "p": f"{p:.6f}"}
    else:
        lo, hi = cfg.ba_attach_range
        # _ba_edges needs m < n; the default range binds only below 5 nodes.
        m = min(int(rng.integers(lo, hi + 1)), n - 1)
        edges = _ba_edges(n, m, graph_seed)
        meta = {"family": "ba", "m": str(m)}
    return GraphInstance(num_nodes=n, edges=tuple(sorted(edges))), meta


def _gen_scheduling(kind: ProblemKind, cfg: GenConfig, rng: np.random.Generator):
    lo, hi = cfg.sizes_for(kind)
    jobs = int(rng.integers(lo, hi + 1))
    machines = int(rng.integers(lo, hi + 1))
    t_lo, t_hi = cfg.ptime_range
    ptimes = rng.integers(t_lo, t_hi + 1, size=(jobs, machines))
    meta = {"jobs": str(jobs), "machines": str(machines)}
    if kind is ProblemKind.PFSP:
        payload = SchedulingInstance(ptimes=tuple(tuple(int(t) for t in row) for row in ptimes))
        return payload, meta, max(jobs, machines)
    order = tuple(tuple(int(m) for m in rng.permutation(machines)) for _ in range(jobs))
    payload = SchedulingInstance(
        ptimes=tuple(tuple(int(t) for t in row) for row in ptimes),
        machine_order=order,
    )
    return payload, meta, max(jobs, machines)


def gen_instance(kind: ProblemKind, cfg: GenConfig) -> Instance:
    """Generate one instance. Deterministic in (kind, cfg)."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.sizes_for(kind)

    if kind in ROUTING_KINDS:
        n = int(rng.integers(lo, hi + 1))
        payload, meta = _gen_routing(kind, cfg, rng, n)
        tag = cfg.distribution.tag
    elif kind in GRAPH_KINDS:
        n = int(rng.integers(lo, hi + 1))
        payload, meta = _gen_graph(cfg, rng, n)
        tag = meta["family"]
    else:
        payload, meta, n = _gen_scheduling(kind, cfg, rng)
        tag = f"{meta['jobs']}x{meta['machines']}"

    instance_id = f"{kind.value}-n{n}-{tag}-s{cfg.seed}"
    return Instance(kind=kind, payload=payload, id=instance_id, seed=cfg.seed, meta=meta)


def gen_batch(kind: ProblemKind, cfg: GenConfig, count: int) -> list[Instance]:
    """Generate `count` instances with seeds cfg.seed, cfg.seed+1, ..."""
    from dataclasses import replace

    return [gen_instance(kind, replace(cfg, seed=cfg.seed + i)) for i in range(count)]
