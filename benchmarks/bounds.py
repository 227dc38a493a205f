"""Per-instance objective bounds that no feasible solution can beat.

On the workloads that take their references from set-up, ``ref_gap_pct``
is the references' mean gap to these bounds; reference_build prints every
method's gap to them. A bound is computed here, from the instance alone, so
it does not move when a solver under test gets better or worse: a solver
that loses quality always shows a larger gap.

Minimisation kinds get a lower bound, maximisation kinds an upper bound.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist

from cobench.problems import ProblemKind, Sense


def _mst_length(coords: np.ndarray) -> float:
    return float(minimum_spanning_tree(cdist(coords, coords)).sum())


def _tsp(p) -> float:
    # A closed tour minus its longest edge is a spanning tree.
    return _mst_length(np.asarray(p.coords, dtype=float))


def _cvrp(p) -> float:
    coords = np.asarray(p.coords, dtype=float)
    depot = np.linalg.norm(coords - coords[0], axis=1)
    # Every unit of demand rides out from and back to the depot.
    radial = 2.0 * float(np.dot(depot, p.demands)) / p.capacity
    return max(_mst_length(coords), radial)


def _op(p) -> float:
    coords = np.asarray(p.coords, dtype=float)
    depot = np.linalg.norm(coords - coords[0], axis=1)
    reachable = 2.0 * depot <= p.distance_limit + 1e-9
    return max(1.0, float(np.dot(reachable, p.prizes)))


def _clique_cover_size(p) -> int:
    """Greedy partition of the nodes into cliques, highest degree first. An
    independent set takes at most one node from each clique."""
    adj = np.zeros((p.num_nodes, p.num_nodes), dtype=bool)
    if p.edges:
        u, v = np.asarray(p.edges).T
        adj[u, v] = adj[v, u] = True
    cliques: list = []
    for node in np.argsort(-adj.sum(axis=1), kind="stable"):
        for members in cliques:
            if adj[node, members].all():
                members.append(node)
                break
        else:
            cliques.append([node])
    return len(cliques)


def _greedy_matching_size(p) -> int:
    matched = set()
    size = 0
    for u, v in p.edges:
        if u not in matched and v not in matched:
            matched.update((u, v))
            size += 1
    return size


def _mis(p) -> float:
    return float(max(1, _clique_cover_size(p)))


def _mvc(p) -> float:
    # Every matched edge needs its own cover node, and the cover is the
    # complement of an independent set.
    return float(max(1, _greedy_matching_size(p), p.num_nodes - _clique_cover_size(p)))


def _pfsp(p) -> float:
    t = np.asarray(p.ptimes, dtype=float)
    head = np.cumsum(t, axis=1) - t  # work before machine m, per job
    tail = t[:, ::-1].cumsum(axis=1)[:, ::-1] - t  # work after machine m
    machine = t.sum(axis=0) + head.min(axis=0) + tail.min(axis=0)
    return float(max(machine.max(), t.sum(axis=1).max()))


def _jssp(p) -> float:
    # ptimes[j][i] runs on machine_order[j][i]: the busiest machine's load
    # and the longest job each bound the makespan.
    t = np.asarray(p.ptimes, dtype=float)
    loads = np.bincount(np.asarray(p.machine_order).ravel(), weights=t.ravel())
    return float(max(loads.max(), t.sum(axis=1).max()))


_BOUND = {
    ProblemKind.TSP: _tsp,
    ProblemKind.CVRP: _cvrp,
    ProblemKind.OP: _op,
    ProblemKind.MIS: _mis,
    ProblemKind.MVC: _mvc,
    ProblemKind.PFSP: _pfsp,
    ProblemKind.JSSP: _jssp,
}


def bound(inst) -> float:
    """Lower bound (min kinds) or upper bound (max kinds) on the objective."""
    return _BOUND[inst.kind](inst.payload)


def gap_pct(inst, value: float, limit: float) -> float:
    """How far ``value`` sits from the instance's bound, in percent."""
    if inst.sense is Sense.MIN:
        return 100.0 * (value - limit) / limit
    return 100.0 * (limit - value) / limit
