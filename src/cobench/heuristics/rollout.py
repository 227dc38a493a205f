"""One masked-rollout kernel for the walking routing constructors.

ACO (TSP, OP, CVRP), the Tsili sampler and the greedy OP walk (one ant)
build solutions the same way: a batch of ants leaves depot 0 and, step by
step, every ant still under way moves to one of its feasible nodes. The
problem kinds differ only in which nodes are feasible and in what an ant
does when none is; the constructors differ only in how an ant picks among
its feasible nodes. All ants advance together, a few whole-array numpy
operations per step.
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
    length: Optional[np.ndarray]  # distance travelled; None without a feasible mask
    load: np.ndarray     # gain collected since the last depot visit


def rollout(
    d: np.ndarray,
    ants: int,
    choose: Chooser,
    feasible: Optional[Mask] = None,
    gain: Optional[np.ndarray] = None,
    reload: bool = False,
) -> Walks:
    """Walk `ants` ants from depot 0 over the nodes of distance matrix `d`,
    which must have a zero diagonal.

    With no `feasible` mask every unvisited node is allowed, so every ant
    moves on each of the n - 1 steps, and the walks carry no length: the
    caller sums its own closed tours. With one, an ant that has no feasible
    node stops for good, or, with `reload`, returns to the depot, empties its
    load, and finishes once it has visited every node. Arriving at node j
    adds gain[j] to the ant's load. The mask may allow only unvisited nodes,
    and each ant's row may depend only on that ant's own state, so an ant
    that has stopped or finished never has a feasible node again.

    The kernel owns its step limit: n - 1, or 2n + 2 with `reload`. That
    never binds when the mask lets an ant empty at the depot move to every
    unvisited node (CVRP's does, no demand exceeding the capacity): each
    return to the depot then follows a visit, so a walk takes <= 2(n - 1).
    """
    n = d.shape[0]
    steps = 2 * n + 2 if reload else n - 1
    rows = np.arange(ants)
    cur = np.zeros(ants, dtype=np.intp)
    unvisited = np.ones((ants, n), dtype=bool)
    unvisited[:, 0] = False
    length = None if feasible is None else np.zeros(ants)
    load = np.zeros(ants)
    walking = np.ones(ants, dtype=bool)  # read only with reload
    paths = np.full((ants, steps + 1), -1, dtype=np.int32)
    paths[:, 0] = 0
    for s in range(1, steps + 1):
        if feasible is None:
            nxt = choose(cur, unvisited)
            paths[:, s] = nxt
        else:
            mask = feasible(cur, unvisited, length, load)
            # an ant that stopped or finished has no feasible node
            moving = mask.any(axis=1)
            if moving.any():
                nxt = np.where(moving, choose(cur, mask), cur)
                if gain is not None:
                    load = np.where(moving, load + gain[nxt], load)
            elif reload and walking.any():
                nxt = cur  # every ant under way is stuck
            else:  # no ant can move or reload again
                break
            if reload:
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
    return Walks(paths, length, load)


def roulette(weights: np.ndarray, feasible: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one column per row with probability proportional to its weight.

    Weights must be >= 0. A row whose weights are all zero, or so small that
    its draw underflows to zero, draws uniformly among its feasible columns
    instead; a row with no feasible column draws column 0.
    """
    cum = weights.cumsum(axis=1)
    # u is clamped away from 0 so that an exact-zero draw never selects a
    # leading zero-weight column
    u = np.maximum(rng.random((len(cum), 1)), 1e-16)
    x = u * cum[:, -1:]
    # x >= 0, so only a row of total weight 0 fails the test (NaN passes)
    if not x.all():
        dead = (x[:, 0] == 0.0).nonzero()[0]
        # a row with no feasible column draws column 0, which x == 0 gives
        dead = dead[feasible[dead].any(axis=1)]
        if dead.size:
            count = feasible[dead].cumsum(axis=1)
            cum[dead] = count
            x[dead] = u[dead] * count[:, -1:]
    # cum is nondecreasing, so the first column to reach x is the draw
    return (cum >= x).argmax(axis=1)


def within_budget(d: np.ndarray, limit: float) -> Mask:
    """OP feasibility: unvisited nodes the ant can still reach within the
    route-length limit."""

    def feasible(cur, unvisited, length, load):
        reach = d[cur]
        reach += length[:, None]  # in place: one fewer (ants, n) temporary
        return unvisited & (reach <= limit + 1e-9)

    return feasible
