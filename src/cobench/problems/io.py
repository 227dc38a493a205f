"""JSON serialization for instances and reference solutions.

Field order is canonical and stable so that regenerating an instance from the
same config produces byte-identical files.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Optional, Union

from .types import (
    GRAPH_KINDS,
    ROUTING_KINDS,
    GraphInstance,
    Instance,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    RoutingInstance,
    SchedulingInstance,
    Solution,
    VertexSet,
)

SCHEMA_VERSION = 1


def _typed(value, field: str, kind: type, expected: str):
    """`value` if it is a `kind`; anything else is a ValueError naming `field`."""
    if not isinstance(value, kind):
        raise ValueError(f"{field}: expected {expected}, got {type(value).__name__}")
    return value


def _object(value, field: str) -> dict:
    """`value` if it is a JSON object; anything else is a ValueError naming `field`."""
    return _typed(value, field, dict, "an object")


def _ints(values, field: str) -> tuple:
    """`values` as a tuple of ints: an integral float such as 3.0 loads as 3,
    and a bool, a string, a non-integral number or a `values` that is not a
    list raises a ValueError naming `field`. Files hold plain ints, so one
    type pass is the common case."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{field}: expected a list of integers") from None
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        integral = isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not integral:
            raise ValueError(f"{field}: expected an integer, got {v!r}")
    return tuple(map(int, values))


def _int_rows(rows, field: str) -> tuple:
    """`rows`, a list of integer lists, as a tuple of int tuples (see _ints)."""
    try:
        return tuple(_ints(row, field) for row in rows)
    except TypeError:
        raise ValueError(f"{field}: expected a list of integer lists") from None


def _pairs(rows, field: str) -> tuple:
    """The values of `rows`, a list of [a, b] pairs, in one flat tuple; a
    `rows` or a row of another shape is a ValueError naming `field`."""
    try:
        return tuple(chain.from_iterable((a, b) for a, b in rows))
    except (TypeError, ValueError):
        raise ValueError(f"{field}: expected a list of pairs") from None


def _floats(values, field: str) -> tuple:
    """`values` as a tuple of floats: an int loads as its float, and a bool,
    a string or any other non-number raises a ValueError naming `field`.
    Files hold plain numbers, so one type pass is the common case."""
    values = tuple(values)
    if not set(map(type, values)) <= {int, float}:
        for v in values:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{field}: expected a number, got {v!r}")
    return tuple(map(float, values))


def _num(x: float) -> Union[int, float]:
    # Store integral values as ints: generated coordinates are integers while
    # benchmark files may carry true floats.
    f = float(x)
    return int(f) if f.is_integer() else f


def _payload_to_dict(payload) -> dict:
    # Fields in declaration order, unset ones left out; json writes tuples as lists.
    out = {f.name: getattr(payload, f.name) for f in fields(payload)}
    out = {name: value for name, value in out.items() if value is not None}
    if isinstance(payload, RoutingInstance):
        out["coords"] = [[_num(x), _num(y)] for x, y in payload.coords]
        out["depot_index"] = 0  # node 0 is the depot; kept so that files stay as they were
    return out


def _payload_from_dict(kind: ProblemKind, d: dict):
    if kind in ROUTING_KINDS:
        (depot,) = _ints((d.get("depot_index", 0),), "depot_index")
        if depot != 0:
            raise ValueError(f"depot_index {depot} is not supported: node 0 is the depot")
        xy = _floats(_pairs(d["coords"], "coords"), "coords")
        return RoutingInstance(
            coords=tuple(zip(xy[::2], xy[1::2])),
            prizes=_ints(d["prizes"], "prizes") if "prizes" in d else None,
            demands=_ints(d["demands"], "demands") if "demands" in d else None,
            capacity=_ints((d["capacity"],), "capacity")[0] if "capacity" in d else None,
            distance_limit=(
                _floats((d["distance_limit"],), "distance_limit")[0]
                if "distance_limit" in d
                else None
            ),
        )
    if kind in GRAPH_KINDS:
        ends = _ints(_pairs(d["edges"], "edges"), "edges")
        return GraphInstance(
            num_nodes=_ints((d["num_nodes"],), "num_nodes")[0],
            edges=tuple(zip(ends[::2], ends[1::2])),
        )
    return SchedulingInstance(
        ptimes=_int_rows(d["ptimes"], "ptimes"),
        machine_order=(
            _int_rows(d["machine_order"], "machine_order") if "machine_order" in d else None
        ),
    )


def instance_to_json(inst: Instance) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": inst.kind.value,
        "id": inst.id,
        "seed": inst.seed,
        "meta": dict(inst.meta),
        "payload": _payload_to_dict(inst.payload),
    }
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    doc = _object(json.loads(text), "instance file")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    kind = ProblemKind(doc["kind"])
    return Instance(
        kind=kind,
        payload=_payload_from_dict(kind, _object(doc["payload"], "payload")),
        id=_typed(doc["id"], "id", str, "a string"),
        seed=None if doc.get("seed") is None else _ints((doc["seed"],), "seed")[0],
        meta=_object(doc.get("meta", {}), "meta"),
    )


def save_instance(inst: Instance, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(instance_to_json(inst))
    return path


def load_instance(path: Union[str, Path]) -> Instance:
    return instance_from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# Solutions and reference-solution files


def solution_to_dict(sol: Solution) -> dict:
    if isinstance(sol, Route):
        return {"type": "route", "nodes": list(sol.nodes)}
    if isinstance(sol, RouteSet):
        return {"type": "routes", "routes": [list(r) for r in sol.routes]}
    if isinstance(sol, VertexSet):
        return {"type": "set", "vertices": sorted(sol.vertices)}
    if isinstance(sol, JobOrder):
        return {"type": "order", "jobs": list(sol.jobs)}
    if isinstance(sol, MachineSchedules):
        return {"type": "schedule", "sequences": [list(s) for s in sol.sequences]}
    raise TypeError(f"unknown solution type {type(sol).__name__}")


def solution_from_dict(d: dict) -> Solution:
    t = d["type"]
    if t == "route":
        return Route(_ints(d["nodes"], "nodes"))
    if t == "routes":
        return RouteSet(_int_rows(d["routes"], "routes"))
    if t == "set":
        return VertexSet(frozenset(_ints(d["vertices"], "vertices")))
    if t == "order":
        return JobOrder(_ints(d["jobs"], "jobs"))
    if t == "schedule":
        return MachineSchedules(_int_rows(d["sequences"], "sequences"))
    raise ValueError(f"unknown solution type {t!r}")


@dataclass(frozen=True)
class ReferenceSolution:
    """A stored solution with its objective and where it came from.

    source is "oracle", "imported", or "heuristic:<name>".
    """

    instance_id: str
    solution: Solution
    objective: float
    source: str
    validated: bool = True  # whether a feasibility check was run and passed

    def __post_init__(self) -> None:
        ok = isinstance(self.source, str) and (
            self.source in ("oracle", "imported") or self.source.startswith("heuristic:")
        )
        if not ok:
            raise ValueError(f"bad source {self.source!r}")


def reference_to_json(ref: ReferenceSolution, provenance: Optional[dict] = None) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance_id": ref.instance_id,
        "solution": solution_to_dict(ref.solution),
        "objective": ref.objective,
        "source": ref.source,
        "validated": ref.validated,
    }
    if provenance:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=2) + "\n"


def reference_from_json(text: str) -> ReferenceSolution:
    doc = _object(json.loads(text), "reference file")
    return ReferenceSolution(
        instance_id=_typed(doc["instance_id"], "instance_id", str, "a string"),
        solution=solution_from_dict(_object(doc["solution"], "solution")),
        objective=_floats((doc["objective"],), "objective")[0],
        source=doc["source"],
        validated=_typed(doc.get("validated", True), "validated", bool, "true or false"),
    )


def save_reference(ref: ReferenceSolution, path: Union[str, Path], provenance: Optional[dict] = None) -> Path:
    path = Path(path)
    path.write_text(reference_to_json(ref, provenance))
    return path


def load_reference(path: Union[str, Path]) -> ReferenceSolution:
    return reference_from_json(Path(path).read_text())
