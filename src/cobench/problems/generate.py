"""Random instance generation for all seven problem kinds.

Generation is a pure function of (kind, config): the same GenConfig always
yields byte-identical serialized instances. All randomness flows through one
numpy Generator seeded from the config.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import networkx as nx
import numpy as np

from .types import (
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


def distance_matrix(coords) -> np.ndarray:
    """Dense symmetric Euclidean distance matrix."""
    pts = np.asarray(coords, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


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


def nearest_neighbor_tour_length(coords, start: int = 0) -> float:
    """Length of the greedy nearest-neighbor closed tour from `start`.

    Ties go to the lower node id. Used to scale the OP route budget.
    """
    d = distance_matrix(coords)
    n = d.shape[0]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    cur = start
    total = 0.0
    for _ in range(n - 1):
        row = np.where(visited, np.inf, d[cur])
        nxt = int(np.argmin(row))  # argmin takes the first (lowest id) on ties
        total += float(row[nxt])
        visited[nxt] = True
        cur = nxt
    total += float(d[cur, start])
    return total


def op_distance_limit(coords, rng: np.random.Generator) -> float:
    """OP route budget: u * L_T with u ~ U[0.5, 0.7] and L_T the closed
    nearest-neighbor tour length from the depot over all nodes."""
    u = float(rng.uniform(0.5, 0.7))
    return u * nearest_neighbor_tour_length(coords, start=0)


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
        u_lo, u_hi = cfg.budget_fraction_range
        u = float(rng.uniform(u_lo, u_hi))
        limit = u * nearest_neighbor_tour_length(coords_arr, start=0)
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


def _gen_graph(cfg: GenConfig, rng: np.random.Generator, n: int):
    family = cfg.graph_family
    if family is None:
        family = GraphFamily.ER if rng.integers(0, 2) == 0 else GraphFamily.BA
    nx_seed = int(rng.integers(0, 2**31 - 1))
    if family is GraphFamily.ER:
        p = float(rng.uniform(*cfg.er_prob_range))
        g = nx.gnp_random_graph(n, p, seed=nx_seed)
        meta = {"family": "er", "p": f"{p:.6f}"}
    else:
        lo, hi = cfg.ba_attach_range
        m = int(rng.integers(lo, hi + 1))
        g = nx.barabasi_albert_graph(n, m, seed=nx_seed)
        meta = {"family": "ba", "m": str(m)}
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
    return GraphInstance(num_nodes=n, edges=edges), meta


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

    if kind in (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP):
        n = int(rng.integers(lo, hi + 1))
        payload, meta = _gen_routing(kind, cfg, rng, n)
        tag = cfg.distribution.tag
    elif kind in (ProblemKind.MIS, ProblemKind.MVC):
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
