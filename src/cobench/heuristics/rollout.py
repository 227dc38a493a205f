"""One masked-rollout kernel for the stochastic routing constructors.

ACO (TSP, OP, CVRP) and the Tsili sampler build solutions the same way: a
batch of ants leaves depot 0 and, step by step, every ant still under way
moves to one of its feasible nodes. The problem kinds differ only in which
nodes are feasible and in what an ant does when none is; the constructors
differ only in how an ant picks among its feasible nodes. All ants advance
together, a few whole-array numpy operations per step.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

# feasible(cur, unvisited, length, load) -> (ants, n) mask of allowed moves
Mask = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
# choose(cur, feasible) -> the next node of every ant
Chooser = Callable[[np.ndarray, np.ndarray], np.ndarray]


class Walks(NamedTuple):
    paths: np.ndarray    # (ants, steps + 1): depot 0, then one node per step, -1 where the ant stayed
    length: np.ndarray   # distance travelled
    load: np.ndarray     # gain collected since the last depot visit
    walking: np.ndarray  # ants still under way when the step limit ran out


def rollout(
    d: np.ndarray,
    ants: int,
    choose: Chooser,
    feasible: Optional[Mask] = None,
    gain: Optional[np.ndarray] = None,
    reload: bool = False,
    max_steps: Optional[int] = None,
) -> Walks:
    """Walk `ants` ants from depot 0 over the nodes of distance matrix `d`,
    which must have a zero diagonal.

    With no `feasible` mask every unvisited node is allowed, so every ant
    moves on each of the n - 1 steps. With one, an ant that has no feasible
    node stops for good, or, with `reload`, returns to the depot, empties its
    load, and finishes once it has visited every node. Arriving at node j
    adds gain[j] to the ant's load.
    """
    n = d.shape[0]
    steps = n - 1 if max_steps is None else max_steps
    rows = np.arange(ants)
    cur = np.zeros(ants, dtype=np.intp)
    unvisited = np.ones((ants, n), dtype=bool)
    unvisited[:, 0] = False
    length = np.zeros(ants)
    load = np.zeros(ants)
    walking = np.ones(ants, dtype=bool)
    paths = np.full((ants, steps + 1), -1, dtype=np.int32)
    paths[:, 0] = 0
    for s in range(1, steps + 1):
        if feasible is None:
            nxt = choose(cur, unvisited)
            paths[:, s] = nxt
        else:
            if not walking.any():
                break
            mask = feasible(cur, unvisited, length, load)
            moving = walking & mask.any(axis=1)
            nxt = np.where(moving, choose(cur, mask), cur) if moving.any() else cur
            if gain is not None:
                load = np.where(moving, load + gain[nxt], load)
            if not reload:
                walking = moving
            else:
                stuck = walking & ~moving
                if stuck.any():
                    nxt = np.where(stuck, 0, nxt)
                    load = np.where(stuck, 0.0, load)
                    walking = walking & (unvisited.any(axis=1) | ~stuck)
                    moving = moving | stuck
            paths[:, s] = np.where(moving, nxt, -1)
        # an ant that stays put adds d[cur, cur] == 0.0, which leaves its length as is
        length = length + d[cur, nxt]
        unvisited[rows, nxt] = False
        cur = nxt
    return Walks(paths, length, load, walking)


def roulette(weights: np.ndarray, feasible: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one column per row with probability proportional to its weight.

    A row whose weights are all zero, or so small that its draw underflows to
    zero, draws uniformly among its feasible columns instead.
    """
    cum = weights.cumsum(axis=1)
    # u is clamped away from 0 so that an exact-zero draw never selects a
    # leading zero-weight column
    u = np.maximum(rng.random((len(cum), 1)), 1e-16)
    x = u * cum[:, -1:]
    dead = x[:, 0] <= 0.0
    if dead.any():
        cum[dead] = feasible[dead].cumsum(axis=1)
        x[dead] = u[dead] * cum[dead, -1:]
    # cum is nondecreasing, so the first column to reach x is the draw
    return np.argmax(cum >= x, axis=1)


def within_budget(d: np.ndarray, limit: float) -> Mask:
    """OP feasibility: unvisited nodes the ant can still reach within the
    route-length limit."""

    def feasible(cur, unvisited, length, load):
        reach = d[cur]
        reach += length[:, None]  # in place: one fewer (ants, n) temporary
        return unvisited & (reach <= limit + 1e-9)

    return feasible
