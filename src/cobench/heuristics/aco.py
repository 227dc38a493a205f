"""Ant colony optimization for the three routing kinds.

All three kinds build their ants' solutions with the shared masked-rollout
kernel (rollout.py); a kind only supplies its heuristic desirability eta, its
feasibility mask and what a stuck ant does. The exponents are the textbook
alpha = 1 and beta = 2 (Dorigo & Stuetzle, Ant Colony Optimization, 2004,
ch. 3), so each iteration computes the choice-info matrix tau * eta**2 once,
and every step gathers one row of it per ant. Pheromones start at 1.0,
evaporate by RHO per iteration, and only the best-so-far solution deposits
(elitist update).

A TSP ant chooses from a candidate list (Dorigo & Stuetzle 2004, sec.
3.4.1, ACOTSP's nn_ants): each node's CANDIDATES nearest other nodes,
distance ties to the lower id. The ant draws among the unvisited nodes of
its current node's list with the same roulette rule; an ant whose list is
used up takes the unvisited node of largest choice info, ties to the lower
id (ACOTSP's choose_best_next). Up to CANDIDATES + 1 nodes a list holds
every other node, so the draw is the plain roulette over the whole row.
Each TSP iteration draws all its uniforms in one (n - 1, ants) block; the
generator fills it in order, so the stream equals one draw per ant per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..problems.generate import distance_matrix
from ..problems.types import ROUTING_KINDS, Instance, ProblemKind, Route, RouteSet, Solution
from .rollout import Chooser, rollout, roulette, within_budget

_EPS = 1e-12
RHO = 0.1  # fraction of pheromone lost per iteration
CANDIDATES = 20  # length of a TSP node's candidate list (ACOTSP's nn_ants)


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

        # a stuck ant heads to the depot, either to reload or to close its final loop
        rules = dict(feasible=fits, gain=demands, reload=True, max_steps=2 * p.n + 2)
    np.fill_diagonal(eta, 0.0)
    eta_b = eta * eta
    rng = np.random.default_rng(cfg.seed)
    if kind is ProblemKind.TSP:
        near = candidate_lists(d, CANDIDATES)
    tau = np.ones_like(d)
    no_prize = np.zeros(cfg.ants)
    best_prize, best_len = -np.inf, np.inf  # the first iteration always improves

    for _ in range(cfg.iterations):
        # choice info, once per iteration; kept finite so that masking by a
        # product never turns an overflowed weight into NaN
        ci = np.nan_to_num(tau * eta_b, copy=False)
        choose = (
            candidate_chooser(ci, near, cfg.ants, rng)
            if kind is ProblemKind.TSP
            else masked_chooser(ci, rng)
        )
        walks = rollout(d, cfg.ants, choose, **rules)
        paths, length, prize = walks.paths, walks.length, no_prize
        if kind is ProblemKind.TSP:
            paths = np.pad(paths, ((0, 0), (0, 1)))  # close every tour at the depot
            length = d[paths[:, :-1], paths[:, 1:]].sum(axis=1)
        elif kind is ProblemKind.OP:
            prize = walks.load
        else:  # an ant that ran out of steps has no complete solution
            length = np.where(walks.walking, np.inf, length)
        i = int(np.lexsort((length, -prize))[0])
        if prize[i] > best_prize + _EPS or (
            abs(prize[i] - best_prize) <= _EPS and length[i] < best_len - _EPS
        ):
            best_prize, best_len = float(prize[i]), float(length[i])
            best = paths[i][paths[i] >= 0]
        tau *= 1.0 - RHO
        # elitist update; every edge gets the same amount, so the order of
        # the additions cannot change the sums
        amount = best_prize / total_prize if kind is ProblemKind.OP else 1.0 / max(best_len, _EPS)
        np.add.at(tau, (np.r_[best[:-1], best[1:]], np.r_[best[1:], best[:-1]]), amount)

    nodes = tuple(int(v) for v in best)
    return _seq_to_routes(nodes) if kind is ProblemKind.CVRP else Route(nodes)


def masked_chooser(ci: np.ndarray, rng: np.random.Generator) -> Chooser:
    """ACO-OP and ACO-CVRP's step: `roulette` over each ant's row of choice
    info `ci`, zeroed outside its feasible mask."""

    def choose(cur: np.ndarray, mask: np.ndarray) -> np.ndarray:
        w = ci.take(cur, axis=0)
        w *= mask
        return roulette(w, mask, rng)

    return choose


def candidate_lists(d: np.ndarray, size: int) -> np.ndarray:
    """Each node's `size` nearest other nodes, distance ties to the lower id,
    in ascending id order: an (n, min(size, n - 1)) array."""
    far = d.copy()
    np.fill_diagonal(far, np.inf)
    return np.sort(np.argsort(far, axis=1, kind="stable")[:, : min(size, len(d) - 1)], axis=1)


def candidate_chooser(ci: np.ndarray, near: np.ndarray, ants: int, rng: np.random.Generator) -> Chooser:
    """ACO-TSP's step for one iteration of `ants` ants walking all n - 1 steps.

    An ant draws among the unvisited nodes of its candidate list `near[cur]`
    with `roulette`'s rule and one uniform; an ant with none left takes its
    unvisited node of largest choice info `ci`, ties to the lower id. The
    iteration's uniforms are drawn up front as one (n - 1, ants) block, which
    is the same stream as one `ants`-long draw per step.
    """
    n = len(near)
    rows = np.arange(ants)
    row_start = rows[:, None] * n  # flat index of unvisited[a, 0]
    near_ci = np.take_along_axis(ci, near, axis=1)  # ci[i, near[i]]
    # clamped away from 0 as in roulette
    draws = iter(np.maximum(rng.random((n - 1, ants, 1)), 1e-16))

    def choose(cur: np.ndarray, unvisited: np.ndarray) -> np.ndarray:
        cand = near.take(cur, axis=0)
        open_ = unvisited.take(row_start + cand)
        w = near_ci.take(cur, axis=0)
        w *= open_
        cum = w.cumsum(axis=1)
        u = next(draws)
        x = u * cum[:, -1:]
        nxt = cand[rows, (cum >= x).argmax(axis=1)]
        # x >= 0, so only a row of total weight 0 fails the test
        if not x.all():
            dead = (x[:, 0] == 0.0).nonzero()[0]
            # a used-up list: the best unvisited node; choice info is >= 0,
            # so a visited node's -1.0 never wins
            left = np.where(unvisited[dead], ci.take(cur[dead], axis=0), -1.0)
            nxt[dead] = left.argmax(axis=1)
            # zero weights on open candidates: a uniform draw among them
            some = dead[open_[dead].any(axis=1)]
            if some.size:
                count = open_[some].cumsum(axis=1)
                nxt[some] = cand[some, (count >= u[some] * count[:, -1:]).argmax(axis=1)]
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
