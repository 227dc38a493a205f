"""Ant colony optimization for the three routing kinds.

All three kinds build their ants' solutions with the shared masked-rollout
kernel (rollout.py); a kind only supplies its heuristic desirability eta, its
feasibility mask and what a stuck ant does. The exponents are the textbook
alpha = 1 and beta = 2 (Dorigo & Stuetzle, Ant Colony Optimization, 2004,
ch. 3), so each iteration computes the choice-info matrix tau * eta**2 once,
and every step gathers each ant's candidates from it. Pheromones start at 1.0,
evaporate by RHO per iteration, and only the best-so-far solution deposits
(elitist update).

Every ant chooses from a candidate list (Dorigo & Stuetzle 2004, sec.
3.4.1, ACOTSP's nn_ants; Bullnheimer, Hartl & Strauss 1999 for the VRP):
each node's CANDIDATES nearest other nodes, distance ties to the lower id,
in ascending id order. They come from `problems.generate.nearest_nodes`,
the pass behind the prompts' neighbour hints. The ant draws among the
feasible nodes of its current node's list with the roulette rule, feasible
meaning unvisited for TSP and what the kind's mask allows for OP and CVRP;
an ant with no feasible candidate takes its feasible node of largest choice
info, ties to the lower id (ACOTSP's choose_best_next). Up to CANDIDATES +
1 nodes a list holds every other node, so the draw, and every seeded
output, is the plain roulette over the whole row. A solve reads the lists
through a table of each ant's flat candidate offsets, ants * n * CANDIDATES
* 8 bytes: 1.6 MB for 100 ants at TSP-100, 48 MB for 100 ants at 3000
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..problems.generate import distance_matrix, nearest_nodes
from ..problems.types import ROUTING_KINDS, Instance, ProblemKind, Route, RouteSet, Solution
from .rollout import Chooser, rollout, within_budget

_EPS = 1e-12
RHO = 0.1  # fraction of pheromone lost per iteration
CANDIDATES = 20  # length of a node's candidate list (ACOTSP's nn_ants)


@dataclass(frozen=True)
class AcoConfig:
    """Colony parameters. Defaults follow the evaluation setup: 100 ants and
    500 iterations for TSP, 50 ants and 100 iterations for OP/CVRP."""

    ants: int = 50
    iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ants < 1 or self.iterations < 1:
            raise ValueError("ants and iterations must be >= 1")

    @staticmethod
    def default_for(kind: ProblemKind) -> "AcoConfig":
        if kind is ProblemKind.TSP:
            return AcoConfig(ants=100, iterations=500)
        return AcoConfig(ants=50, iterations=100)


def aco_solve(inst: Instance, cfg: AcoConfig) -> Solution:
    """Best solution an elitist ant colony finds on a TSP, OP or CVRP instance."""
    kind = inst.kind
    if kind not in ROUTING_KINDS:
        raise ValueError(f"no ACO construction for {kind.value}")
    p = inst.payload
    d = distance_matrix(p.coords)
    rules: dict = {}  # TSP: every unvisited node is feasible, no ant gets stuck
    if kind is ProblemKind.OP:
        prizes = np.asarray(p.prizes, dtype=float)
        total_prize = max(prizes.sum(), _EPS)
        eta = prizes[None, :] / np.maximum(d, _EPS)  # prize-per-distance from anywhere
        rules = dict(feasible=within_budget(d, p.distance_limit), gain=prizes)
    else:
        eta = 1.0 / np.maximum(d, _EPS)
    if kind is ProblemKind.CVRP:
        demands = np.asarray(p.demands, dtype=float)
        Q = float(p.capacity)
        if demands.max() > Q:
            raise ValueError("a customer demand exceeds the vehicle capacity")

        def fits(cur, unvisited, length, load):
            return unvisited & (demands <= (Q - load)[:, None] + 1e-9)

        # a stuck ant heads to the depot, either to reload or to close its
        # final loop; no demand exceeds Q, so every walk is complete within
        # the kernel's step limit
        rules = dict(feasible=fits, gain=demands, reload=True)
    np.fill_diagonal(eta, 0.0)
    eta_b = eta * eta
    rng = np.random.default_rng(cfg.seed)
    near = np.sort(nearest_nodes(p.coords, CANDIDATES)[0], axis=1)
    offsets = candidate_offsets(near, cfg.ants)
    # a TSP walk always takes n - 1 steps; an OP or CVRP walk's length varies
    steps = p.n - 1 if kind is ProblemKind.TSP else None
    tau = np.ones_like(d)
    no_prize = np.zeros(cfg.ants)
    best_prize, best_len = -np.inf, np.inf  # the first iteration always improves

    for _ in range(cfg.iterations):
        # choice info, once per iteration; kept finite so that masking by a
        # product never turns an overflowed weight into NaN (+inf becomes
        # the largest float, NaN 0), mapped only when a weight is not finite
        ci = tau * eta_b
        if not np.isfinite(ci).all():
            np.nan_to_num(ci, copy=False)
        walks = rollout(d, cfg.ants, candidate_chooser(ci, near, offsets, rng, steps), **rules)
        paths, length, prize = walks.paths, walks.length, no_prize
        if kind is ProblemKind.TSP:
            paths = np.pad(paths, ((0, 0), (0, 1)))  # close every tour at the depot
            length = d.take(paths[:, :-1] * p.n + paths[:, 1:]).sum(axis=1)
        elif kind is ProblemKind.OP:
            prize = walks.load
        i = int(np.lexsort((length, -prize))[0])
        if prize[i] > best_prize + _EPS or (
            abs(prize[i] - best_prize) <= _EPS and length[i] < best_len - _EPS
        ):
            best_prize, best_len = float(prize[i]), float(length[i])
            best = paths[i][paths[i] >= 0]
            # both directions of every edge of the best solution
            edges = (np.concatenate((best[:-1], best[1:])), np.concatenate((best[1:], best[:-1])))
            amount = best_prize / total_prize if kind is ProblemKind.OP else 1.0 / max(best_len, _EPS)
        tau *= 1.0 - RHO
        # elitist update; every edge gets the same amount, so the order of
        # the additions cannot change the sums
        np.add.at(tau, edges, amount)

    nodes = tuple(int(v) for v in best)
    return _seq_to_routes(nodes) if kind is ProblemKind.CVRP else Route(nodes)


def candidate_offsets(near: np.ndarray, ants: int) -> np.ndarray:
    """Row a * n + i holds the flat indices of the (ants, n) mask's entries
    [a, near[i]]: the table an ant at node i reads its candidates through."""
    n, size = near.shape
    return (near[None] + (np.arange(ants) * n)[:, None, None]).reshape(ants * n, size)


def candidate_chooser(
    ci: np.ndarray,
    near: np.ndarray,
    offsets: np.ndarray,
    rng: np.random.Generator,
    steps: Optional[int],
) -> Chooser:
    """Every ACO kind's step for one iteration, on candidate lists `near` and
    their flat `offsets` (see `candidate_offsets`).

    An ant draws among the feasible nodes of its candidate list `near[cur]`
    with `roulette`'s rule and one uniform; an ant with none feasible takes
    its feasible node of largest choice info `ci`, ties to the lower id, and
    an ant with no feasible node at all gets node 0, as `roulette` gives
    column 0. With `steps`, the walk's length, the iteration's uniforms are
    drawn up front as one (steps, ants) block, the same stream as one
    `ants`-long draw per step; with None each step draws its own.
    """
    n, size = near.shape
    ants = len(offsets) // n
    rows = np.arange(ants)
    row_off = rows * n  # flat index of mask[a, 0]
    rows_cl = rows * size  # flat index of a row's first candidate
    near_ci = ci[np.arange(n)[:, None], near]  # ci[i, near[i]]
    # clamped away from 0 as in roulette
    if steps is None:
        def draw() -> np.ndarray:
            return np.maximum(rng.random((ants, 1)), 1e-16)
    else:
        draw = iter(np.maximum(rng.random((steps, ants, 1)), 1e-16)).__next__

    def choose(cur: np.ndarray, mask: np.ndarray) -> np.ndarray:
        idx = offsets.take(row_off + cur, axis=0)
        open_ = mask.take(idx)
        w = near_ci.take(cur, axis=0)
        w *= open_
        cum = w.cumsum(axis=1)
        u = draw()
        x = u * cum[:, -1:]
        nxt = idx.take((cum >= x).argmax(axis=1) + rows_cl) - row_off
        # x >= 0, so only a row of total weight 0 fails the test
        if np.count_nonzero(x) != ants:
            dead = (x[:, 0] == 0.0).nonzero()[0]
            # no feasible candidate: the best feasible node, or node 0 for an
            # ant with none; choice info is >= 0, so an infeasible node's
            # -1.0 never wins
            left = np.where(mask[dead], ci.take(cur[dead], axis=0), -1.0)
            nxt[dead] = left.argmax(axis=1)
            # zero weights on open candidates: a uniform draw among them
            some = dead[open_[dead].any(axis=1)]
            if some.size:
                count = open_[some].cumsum(axis=1)
                nxt[some] = near[cur[some], (count >= u[some] * count[:, -1:]).argmax(axis=1)]
        return nxt

    return choose


def _seq_to_routes(seq: Sequence[int]) -> RouteSet:
    """Split a depot-separated visit sequence into per-vehicle loops."""
    routes: List[List[int]] = []
    current: List[int] = []
    for v in seq:
        if v == 0:
            if current:
                routes.append([0] + current + [0])
                current = []
        else:
            current.append(v)
    if current:
        routes.append([0] + current + [0])
    return RouteSet(tuple(tuple(r) for r in routes))
