"""Seeded-output golden for every deterministic heuristic and the exact search.

The digest pins, for all seven kinds at the small, middle and top of the
paper's size range, the serialized instance (so the OP length budget, which
is scaled by a nearest-neighbour tour, is in it) and the solution and
objective of every method that takes no seed, on plain and on tie-rich
instances, where the lower-id tie-breaks decide the output. It also pins
`brute_force` on small instances of every kind, including the 2-node TSP and
the 3x3 JSSP. A change to the heuristics that is meant to keep their outputs
must keep it.
"""

import hashlib

from cobench.heuristics import METHODS_BY_KIND, SEEDED_METHODS, brute_force, solve
from cobench.problems import instance_to_json
from cobench.problems.types import (
    GRAPH_KINDS,
    ROUTING_KINDS,
    SCHEDULING_KINDS,
    ProblemKind,
    VertexSet,
)

from conftest import make_instance

# Small, middle and top of the paper's size range per kind.
SIZES = {True: (5, 12, 20), False: (10, 55, 100)}

# Generator overrides that make ties common: a 5x5 coordinate box (shared
# points, equal distances), dense ER graphs and processing times of 1-3.
TIES = {k: dict(coord_range=(0, 4)) for k in ROUTING_KINDS}
TIES.update({k: dict(er_prob_range=(0.3, 0.3)) for k in GRAPH_KINDS})
TIES.update({k: dict(ptime_range=(1, 3)) for k in SCHEDULING_KINDS})
TIE_SIZES = {True: (6, 12), False: (12, 30)}

# (kind, size, generator overrides) inside the exact-search budgets. The
# second CVRP case needs three vehicles.
EXACT = [
    (ProblemKind.TSP, 2, {}),
    (ProblemKind.TSP, 3, {}),
    (ProblemKind.TSP, 8, {}),
    (ProblemKind.TSP, 8, TIES[ProblemKind.TSP]),
    (ProblemKind.OP, 8, {}),
    (ProblemKind.OP, 8, TIES[ProblemKind.OP]),
    (ProblemKind.CVRP, 8, {}),
    (ProblemKind.CVRP, 8, TIES[ProblemKind.CVRP]),
    (ProblemKind.CVRP, 9, dict(demand_range=(9, 10))),
    (ProblemKind.MIS, 14, {}),
    (ProblemKind.MVC, 14, {}),
    (ProblemKind.PFSP, 5, {}),
    (ProblemKind.JSSP, 3, {}),
]

GOLDEN = "7e9c2ccc37fae33c"


def _canon(sol):
    # A frozenset's repr follows its hash table, not its value: sort it.
    if isinstance(sol, VertexSet):
        return ("VertexSet", tuple(sorted(sol.vertices)))
    return sol


def test_heuristic_seeded_outputs():
    h = hashlib.sha256()
    for kind, methods in METHODS_BY_KIND.items():
        scheduling = kind in SCHEDULING_KINDS
        cases = [(s, {}) for s in SIZES[scheduling]]
        cases += [(s, TIES[kind]) for s in TIE_SIZES[scheduling]]
        for size, gen in cases:
            inst = make_instance(kind, size=size, seed=size, **gen)
            h.update(instance_to_json(inst).encode())
            for method in methods:
                if method in SEEDED_METHODS:
                    continue
                res = solve(inst, method)
                h.update(repr((inst.id, method, _canon(res.solution), res.objective)).encode())
    for kind, size, gen in EXACT:
        inst = make_instance(kind, size=size, seed=size, **gen)
        sol, value = brute_force(inst)
        h.update(repr((inst.id, "brute_force", _canon(sol), value)).encode())
    assert h.hexdigest()[:16] == GOLDEN
