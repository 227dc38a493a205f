"""Heuristic feature extraction for TAI inputs.

Each hint function returns one tuple per entity (node, machine or job) of
up to k (id, value) pairs. All selections use exact values with
deterministic tie-breaks (lower id wins).
Routing neighbours come from `problems.generate.nearest_nodes`, the exact
block pass ACO's candidate lists come from too.
"""

from __future__ import annotations

from itertools import islice
from typing import Tuple

import numpy as np

from ..problems.generate import nearest_nodes
from ..problems.types import RoutingInstance, SchedulingInstance

DEFAULT_K = 2

Hints = Tuple[Tuple[Tuple[int, float], ...], ...]


def routing_features(payload: RoutingInstance, k: int) -> Hints:
    """k nearest neighbors per node, ascending distance, ties to lower id."""
    ids, dists = nearest_nodes(payload.coords, k)
    return tuple(tuple(zip(i, x)) for i, x in zip(ids.tolist(), dists.tolist()))


def graph_features(n: int, edge_ends: Tuple[int, ...], k: int) -> Hints:
    """Top-k neighbors per node of an n-node graph by largest degree, ties to
    lower id. edge_ends is the edge list flattened, (u0, v0, u1, v1, ...),
    as the prompt prints it."""
    k = min(k, n)  # no node has more than n - 1 neighbours
    ends = np.fromiter(edge_ends, np.intp, len(edge_ends))
    deg = np.bincount(ends, minlength=n)
    # One rank for every node, computed once: larger degree first, ties to
    # the lower id.
    rank = np.empty(n, np.intp)
    rank[np.argsort(-deg, kind="stable")] = np.arange(n)
    # Each edge seen from both of its ends, sorted by node and then by the
    # neighbour's rank; a node's first min(k, degree) entries are its hints.
    src, dst = ends, ends.reshape(-1, 2)[:, ::-1].ravel()
    order = np.argsort(src * n + rank[dst])
    src, dst = src[order], dst[order]
    place = np.arange(len(src)) - (np.cumsum(deg) - deg)[src]  # index among its node's entries
    top = dst[place < k]
    pairs = zip(top.tolist(), deg[top].astype(float).tolist())
    return tuple(tuple(islice(pairs, c)) for c in np.minimum(deg, k).tolist())


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
