"""The kind guard every constructive heuristic opens with."""

from __future__ import annotations

from ..problems.types import Instance, Payload, ProblemKind


def _require(inst: Instance, *kinds: ProblemKind) -> Payload:
    """The instance's payload, or ValueError when its kind is none of `kinds`."""
    if inst.kind not in kinds:
        names = "/".join(k.value for k in kinds)
        raise ValueError(f"expected a {names} instance, got {inst.kind.value}")
    return inst.payload
