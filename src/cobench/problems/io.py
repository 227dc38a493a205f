"""JSON serialization for instances and reference solutions.

Field order is canonical and stable so that regenerating an instance from the
same config produces byte-identical files. Both writers emit strict JSON
(RFC 8259): an OP with no budget, an infinite distance_limit, is written as
null and read back as no budget; a file that holds Infinity still loads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Optional, Union

from .types import (
    NESTED_SOLUTION_TYPES,
    PAYLOAD_TYPE_BY_KIND,
    SOLUTION_TAGS,
    GraphInstance,
    Instance,
    ProblemKind,
    RoutingInstance,
    SchedulingInstance,
    Solution,
    VertexSet,
    solution_ids,
)

SCHEMA_VERSION = 1


# A JSON list, or a tuple this module built; "" and {} are not empty lists.
_LIST = (list, tuple)


def _typed(value, field: str, kind: Union[type, tuple], expected: str):
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
    values = tuple(_typed(values, field, _LIST, "a list of integers"))
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        integral = isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not integral:
            raise ValueError(f"{field}: expected an integer, got {v!r}")
    return tuple(map(int, values))


def _int_rows(rows, field: str) -> tuple:
    """`rows`, a list of integer lists, as a tuple of int tuples (see _ints)."""
    rows = _typed(rows, field, _LIST, "a list of integer lists")
    return tuple(_ints(row, field) for row in rows)


def _pairs(rows, field: str) -> tuple:
    """The values of `rows`, a list of [a, b] pairs, in one flat tuple; a
    `rows` or a row of another shape is a ValueError naming `field`."""
    rows = _typed(rows, field, _LIST, "a list of pairs")
    try:
        return tuple(chain.from_iterable((a, b) for a, b in rows))
    except (TypeError, ValueError):
        raise ValueError(f"{field}: expected a list of pairs") from None


def _floats(values, field: str) -> tuple:
    """`values` as a tuple of floats: an int loads as its float, and a bool,
    a string or any other non-number raises a ValueError naming `field`.
    Files hold plain numbers, so one type pass is the common case."""
    values = tuple(_typed(values, field, _LIST, "a list of numbers"))
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
        if out.get("distance_limit") == math.inf:
            out["distance_limit"] = None  # no budget, in strict JSON
    return out


def _payload_from_dict(kind: ProblemKind, d: dict):
    payload_type = PAYLOAD_TYPE_BY_KIND[kind]
    if payload_type is RoutingInstance:
        (depot,) = _ints((d.get("depot_index", 0),), "depot_index")
        if depot != 0:
            raise ValueError(f"depot_index {depot} is not supported: node 0 is the depot")
        xy = _floats(_pairs(d["coords"], "coords"), "coords")
        limit = d.get("distance_limit")
        if limit is not None:
            limit = _floats((limit,), "distance_limit")[0]
        elif "distance_limit" in d:
            limit = math.inf  # null: no budget
        return RoutingInstance(
            coords=tuple(zip(xy[::2], xy[1::2])),
            prizes=_ints(d["prizes"], "prizes") if "prizes" in d else None,
            demands=_ints(d["demands"], "demands") if "demands" in d else None,
            capacity=_ints((d["capacity"],), "capacity")[0] if "capacity" in d else None,
            distance_limit=limit,
        )
    if payload_type is GraphInstance:
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
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _document(text: str, what: str) -> dict:
    """The object `text` holds; ValueError for another shape or schema_version."""
    doc = _object(json.loads(text), what)
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # true == 1
        raise ValueError(f"unsupported schema_version {version!r}")
    return doc


def instance_from_json(text: str) -> Instance:
    doc = _document(text, "instance file")
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
    for solution_type, tag in SOLUTION_TAGS.items():
        if isinstance(sol, solution_type):
            return {"type": tag, fields(solution_type)[0].name: solution_ids(sol)}
    raise TypeError(f"unknown solution type {type(sol).__name__}")


def solution_from_dict(d: dict) -> Solution:
    t = d["type"]
    # Compared, not looked up, so that an unhashable value is unknown too.
    solution_type = next((s for s, tag in SOLUTION_TAGS.items() if tag == t), None)
    if solution_type is None:
        raise ValueError(f"unknown solution type {t!r}")
    name = fields(solution_type)[0].name
    ids = (_int_rows if solution_type in NESTED_SOLUTION_TYPES else _ints)(d[name], name)
    return solution_type(frozenset(ids) if solution_type is VertexSet else ids)


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
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def reference_from_json(text: str) -> ReferenceSolution:
    doc = _document(text, "reference file")
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
