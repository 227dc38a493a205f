"""JSON serialization for instances and reference solutions.

Field order is canonical and stable so that regenerating an instance from the
same config produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def _num(x: float) -> Union[int, float]:
    # Store integral values as ints: generated coordinates are integers while
    # benchmark files may carry true floats.
    f = float(x)
    return int(f) if f.is_integer() else f


def _payload_to_dict(payload) -> dict:
    if isinstance(payload, RoutingInstance):
        out: dict = {"coords": [[_num(x), _num(y)] for x, y in payload.coords]}
        if payload.prizes is not None:
            out["prizes"] = list(payload.prizes)
        if payload.demands is not None:
            out["demands"] = list(payload.demands)
        if payload.capacity is not None:
            out["capacity"] = payload.capacity
        if payload.distance_limit is not None:
            out["distance_limit"] = payload.distance_limit
        out["depot_index"] = payload.depot_index
        return out
    if isinstance(payload, GraphInstance):
        return {"num_nodes": payload.num_nodes, "edges": [list(e) for e in payload.edges]}
    if isinstance(payload, SchedulingInstance):
        out = {"ptimes": [list(r) for r in payload.ptimes]}
        if payload.machine_order is not None:
            out["machine_order"] = [list(r) for r in payload.machine_order]
        return out
    raise TypeError(f"unknown payload type {type(payload).__name__}")


def _payload_from_dict(kind: ProblemKind, d: dict):
    if kind in ROUTING_KINDS:
        return RoutingInstance(
            coords=tuple((float(x), float(y)) for x, y in d["coords"]),
            prizes=tuple(int(p) for p in d["prizes"]) if "prizes" in d else None,
            demands=tuple(int(q) for q in d["demands"]) if "demands" in d else None,
            capacity=int(d["capacity"]) if "capacity" in d else None,
            distance_limit=float(d["distance_limit"]) if "distance_limit" in d else None,
            depot_index=int(d.get("depot_index", 0)),
        )
    if kind in GRAPH_KINDS:
        return GraphInstance(
            num_nodes=int(d["num_nodes"]),
            edges=tuple((int(u), int(v)) for u, v in d["edges"]),
        )
    return SchedulingInstance(
        ptimes=tuple(tuple(int(t) for t in row) for row in d["ptimes"]),
        machine_order=(
            tuple(tuple(int(m) for m in row) for row in d["machine_order"])
            if "machine_order" in d
            else None
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
    doc = json.loads(text)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    kind = ProblemKind(doc["kind"])
    return Instance(
        kind=kind,
        payload=_payload_from_dict(kind, doc["payload"]),
        id=doc["id"],
        seed=doc.get("seed"),
        meta=doc.get("meta", {}),
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
        return Route(tuple(int(v) for v in d["nodes"]))
    if t == "routes":
        return RouteSet(tuple(tuple(int(v) for v in r) for r in d["routes"]))
    if t == "set":
        return VertexSet.of(d["vertices"])
    if t == "order":
        return JobOrder(tuple(int(j) for j in d["jobs"]))
    if t == "schedule":
        return MachineSchedules(tuple(tuple(int(j) for j in s) for s in d["sequences"]))
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
        ok = self.source in ("oracle", "imported") or self.source.startswith("heuristic:")
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
    doc = json.loads(text)
    return ReferenceSolution(
        instance_id=doc["instance_id"],
        solution=solution_from_dict(doc["solution"]),
        objective=float(doc["objective"]),
        source=doc["source"],
        validated=bool(doc.get("validated", True)),
    )


def save_reference(ref: ReferenceSolution, path: Union[str, Path], provenance: Optional[dict] = None) -> Path:
    path = Path(path)
    path.write_text(reference_to_json(ref, provenance))
    return path


def load_reference(path: Union[str, Path]) -> ReferenceSolution:
    return reference_from_json(Path(path).read_text())
