"""Ant colony optimization for the three routing kinds.

All three kinds build their ants' solutions with the shared masked-rollout
kernel (rollout.py); a kind only supplies its heuristic desirability eta, its
feasibility mask and what a stuck ant does. Each iteration computes the
choice-info matrix tau**alpha * eta**beta once, and every step gathers one
row of it per ant (Dorigo & Stuetzle, Ant Colony Optimization, 2004, ch. 3).
Pheromones start at 1.0, evaporate by rho per iteration, and only the
best-so-far solution deposits (elitist update).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..problems.generate import distance_matrix
from ..problems.types import Instance, ProblemKind, Route, RouteSet, Solution
from .rollout import rollout, roulette, within_budget

_EPS = 1e-12


@dataclass(frozen=True)
class AcoConfig:
    """Colony parameters. Defaults follow the evaluation setup: 100 ants and
    500 iterations for TSP, 50 ants and 100 iterations for OP/CVRP."""

    ants: int = 50
    iterations: int = 100
    alpha: float = 1.0        # pheromone exponent
    beta: float = 2.0         # heuristic desirability exponent
    evaporation: float = 0.1  # rho, fraction of pheromone lost per iteration
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ants < 1 or self.iterations < 1:
            raise ValueError("ants and iterations must be >= 1")
        if not (0.0 < self.evaporation < 1.0):
            raise ValueError("evaporation must lie strictly between 0 and 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")

    @staticmethod
    def default_for(kind: ProblemKind) -> "AcoConfig":
        if kind is ProblemKind.TSP:
            return AcoConfig(ants=100, iterations=500)
        return AcoConfig(ants=50, iterations=100)


def aco_solve(inst: Instance, cfg: Optional[AcoConfig] = None) -> Solution:
    """Best solution an elitist ant colony finds on a TSP, OP or CVRP instance."""
    if cfg is None:
        cfg = replace(AcoConfig.default_for(inst.kind), seed=0)
    kind = inst.kind
    if kind not in (ProblemKind.TSP, ProblemKind.OP, ProblemKind.CVRP):
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
    eta_b = eta ** cfg.beta
    rng = np.random.default_rng(cfg.seed)
    tau = np.ones_like(d)
    no_prize = np.zeros(cfg.ants)
    best_prize, best_len = -np.inf, np.inf  # the first iteration always improves

    for _ in range(cfg.iterations):
        # choice info, once per iteration; kept finite so that masking by a
        # product never turns an overflowed weight into NaN
        ci = np.nan_to_num(tau ** cfg.alpha * eta_b, copy=False)
        walks = rollout(d, cfg.ants, lambda cur, mask: roulette(ci[cur] * mask, mask, rng), **rules)
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
        tau *= 1.0 - cfg.evaporation
        # elitist update; every edge gets the same amount, so the order of
        # the additions cannot change the sums
        amount = best_prize / total_prize if kind is ProblemKind.OP else 1.0 / max(best_len, _EPS)
        np.add.at(tau, (np.r_[best[:-1], best[1:]], np.r_[best[1:], best[:-1]]), amount)

    nodes = tuple(int(v) for v in best)
    return _seq_to_routes(nodes) if kind is ProblemKind.CVRP else Route(nodes)


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
