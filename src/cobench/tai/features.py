"""Heuristic feature extraction for TAI inputs.

Each hint function returns one tuple per entity (node, machine or job) of
up to k (id, value) pairs. All selections use exact values with
deterministic tie-breaks (lower id wins).
Routing neighbours come from one exact pass over blocks of rows of the
distance matrix, so memory stays bounded on TSPLIB-sized inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..problems.types import GraphInstance, RoutingInstance, SchedulingInstance

# Rows per block of the routing neighbour pass; a block holds BLOCK_ROWS * n
# distances.
BLOCK_ROWS = 256

DEFAULT_K = 2

Hints = Tuple[Tuple[Tuple[int, float], ...], ...]


def routing_features(payload: RoutingInstance, k: int) -> Hints:
    """k nearest neighbors per node, ascending distance, ties to lower id."""
    pts = np.asarray(payload.coords, dtype=float)
    n = len(pts)
    kk = min(k, n - 1)
    out = []
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        dx = pts[None, :, 0] - pts[lo:hi, 0, None]
        dy = pts[None, :, 1] - pts[lo:hi, 1, None]
        d = np.sqrt(dx * dx + dy * dy)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # never its own neighbour
        # Every candidate within the row's kk-th distance, ordered by (row,
        # distance, id); the first kk of each row are exact at ties.
        kth = np.partition(d, kk - 1, axis=1)[:, kk - 1]
        rows, cols = np.nonzero(d <= kth[:, None])
        dist = d[rows, cols]
        order = np.lexsort((cols, dist, rows))
        take = order[np.searchsorted(rows, np.arange(hi - lo))[:, None] + np.arange(kk)]
        out += [tuple(zip(i, x)) for i, x in zip(cols[take].tolist(), dist[take].tolist())]
    return tuple(out)


def graph_features(payload: GraphInstance, k: int) -> Hints:
    """Top-k neighbors per node by largest degree, ties to lower id."""
    adj = payload.adjacency()
    deg = [len(a) for a in adj]
    out = []
    for i in range(payload.num_nodes):
        ranked = sorted(adj[i], key=lambda j: (-deg[j], j))[:k]
        out.append(tuple((j, float(deg[j])) for j in ranked))
    return tuple(out)


def _k_lowest(rows, k: int) -> Hints:
    """Per row: the k (index, value) pairs with the lowest values, ascending,
    ties to the lower index (sorted is stable)."""
    return tuple(
        tuple((i, float(row[i])) for i in sorted(range(len(row)), key=row.__getitem__)[:k])
        for row in rows
    )


def pfsp_features(payload: SchedulingInstance, k: int) -> Hints:
    """Per machine: the k jobs with the lowest processing time."""
    return _k_lowest(tuple(zip(*payload.ptimes)), k)


def jssp_features(payload: SchedulingInstance, k: int) -> Hints:
    """Per job: the k operation indices with the lowest duration."""
    return _k_lowest(payload.ptimes, k)

