"""Scaling measured times to a machine of fixed speed.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes, as other tenants come and go. The
benchmark times a fixed piece of work (a probe) at the boundaries of every
unit of work it measures, and scales each unit's time by
``PROBE_REF_S / probe time`` around it. Scaled times read as seconds on a
machine where the probe takes ``PROBE_REF_S``. The probes do not use
cobench, so a change to the library moves scaled times exactly as it moves
raw ones. ``probe`` mixes interpreter, allocation and array work, like the
scoring and evaluation loops; ``array_probe`` does the small-array sampling
steps that dominate ant colony optimisation, and tracks reference building.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 0.015


def _probe_round() -> None:
    x = 0
    for i in range(10_000):  # interpreter dispatch and integer arithmetic
        x += i * i % 7
    pairs = [(i % 97, str(i)) for i in range(5_000)]  # allocation, hashing
    dict(pairs)
    pairs.sort()
    a = np.arange(20_000, dtype=float)  # small array arithmetic
    (a * a).sum()


def _timed(round_fn) -> float:
    """Five times the median of five rounds, so that one interruption does
    not count."""
    rounds = []
    for _ in range(5):
        t0 = time.perf_counter()
        round_fn()
        rounds.append(time.perf_counter() - t0)
    return 5 * statistics.median(rounds)


def probe() -> float:
    """Seconds a fixed mix of interpreter, allocation and array work takes
    right now."""
    return _timed(_probe_round)


def _array_round() -> None:
    rng = np.random.default_rng(0)
    weights = rng.random((100, 100))
    for _ in range(40):
        cum = weights.cumsum(axis=1)
        u = rng.random((100, 1)) * cum[:, -1:]
        (cum < u).sum(axis=1)
        np.maximum(weights, 1e-3) ** 2.0


def array_probe() -> float:
    """Like ``probe``, for row-wise cumulative sampling on 100x100 arrays."""
    return _timed(_array_round)


class SpeedScale:
    """Probes at each boundary; ``interval()`` returns the scale for the
    work done since the previous boundary, from the probes on either side."""

    def __init__(self, probe_fn=probe) -> None:
        self._probe = probe_fn
        self._last = probe_fn()
        self.probes = [self._last]

    def interval(self) -> float:
        now = self._probe()
        self.probes.append(now)
        scale = PROBE_REF_S / ((self._last + now) / 2.0)
        self._last = now
        return scale
