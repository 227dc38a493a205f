"""Span recording around cobench's public layer functions.

``Tracer.install`` replaces each target function, wherever a module holds a
reference to it, with a wrapper that records one span per call: an id, the
parent span on the same thread, a request id, the span name, its layer, a
key (the problem kind, or kind and method for ``solve``), start, end and the
run phase. Spans stay in memory until ``write`` is called at the end of the
run. ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("problems", "tai", "verify", "rewards", "heuristics", "evalharness", "cli")


def _kind(x) -> Optional[str]:
    kind = getattr(x, "kind", x)
    return getattr(kind, "value", None)


def _arg_kind(i: int) -> Callable:
    return lambda args: _kind(args[i]) if len(args) > i else None


def _solve_key(args) -> Optional[str]:
    if len(args) < 2:
        return None
    return f"{_kind(args[0])}.{args[1]}"


# (module, function, layer, key of a call from its positional arguments)
TARGETS = (
    ("cobench.problems.generate", "gen_instance", "problems", _arg_kind(0)),
    ("cobench.tai.encode", "encode", "tai", _arg_kind(0)),
    ("cobench.tai.render", "render_prompt", "tai", _arg_kind(0)),
    ("cobench.tai.parse", "parse", "tai", _arg_kind(1)),
    ("cobench.verify", "check", "verify", _arg_kind(0)),
    ("cobench.verify", "objective", "verify", _arg_kind(0)),
    ("cobench.rewards", "total_reward", "rewards", _arg_kind(0)),
    ("cobench.rewards", "group_advantages", "rewards", lambda args: None),
    ("cobench.rewards", "grpo_surrogate", "rewards", lambda args: None),
    ("cobench.heuristics", "solve", "heuristics", _solve_key),
    ("cobench.evalharness.endpoint", "request_samples", "evalharness", lambda args: None),
    ("cobench.evalharness.metrics", "build_record", "evalharness", _arg_kind(0)),
    ("cobench.cli", "main", "cli", lambda args: None),
)


class NullTracer:
    """Stands in for a Tracer when the run is not traced."""

    def set_request(self, rid: Optional[str]) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    def set_request(self, rid: Optional[str]) -> None:
        """Tag the spans this thread opens from now on with ``rid``."""
        self._local.rid = rid

    def install(self, extra_modules=()) -> None:
        for mod_name, fn_name, layer, key in TARGETS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", layer, original, key)
            holders = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cobench"]
            for mod in holders + list(extra_modules):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, layer: str, fn: Callable, key: Callable) -> Callable:
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent, rid = stack[-1]
            else:
                # A root span takes the request the caller named; a worker
                # thread names it after the instance it was handed, and keeps
                # it for the calls that follow on that thread.
                parent = 0
                rid = getattr(local, "rid", None)
                if rid is None:
                    inst_id = getattr(args[0], "id", None) if args else None
                    rid = inst_id if isinstance(inst_id, str) else getattr(local, "last_rid", None)
                    local.last_rid = rid
            stack.append((sid, rid))
            k = key(args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, rid, name, layer, k, t0, t1, self.phase))

        return wrapper

    def write(self, path: Path) -> None:
        fields = ("id", "parent", "request", "name", "layer", "key", "start", "end", "phase")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


class SpanStats:
    """Calls, busy time and durations per (name, key), and self time per
    layer, over the spans of one phase (or of every phase)."""

    def __init__(self, spans: List[tuple], phase: Optional[str] = "measure"):
        chosen = [s for s in spans if phase is None or s[8] == phase]
        child_time: Dict[int, float] = defaultdict(float)
        for sid, parent, *_, t0, t1, _phase in chosen:
            if parent:
                child_time[parent] += t1 - t0
        self.durations: Dict[tuple, List[float]] = defaultdict(list)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        for sid, parent, rid, name, layer, key, t0, t1, _phase in chosen:
            self.durations[(name, key)].append(t1 - t0)
            self.self_s[layer] += (t1 - t0) - child_time.get(sid, 0.0)

    def select(self, name: str, key=Ellipsis) -> List[float]:
        return [
            d
            for (n, k), ds in self.durations.items()
            if n == name and (key is Ellipsis or k == key)
            for d in ds
        ]

    def calls(self, name: str, key=Ellipsis) -> int:
        return len(self.select(name, key))

    def busy_s(self, name: str, key=Ellipsis) -> float:
        return float(sum(self.select(name, key)))

    def p50_us(self, name: str, key=Ellipsis) -> float:
        ds = self.select(name, key)
        return float(np.median(ds)) * 1e6 if ds else 0.0
