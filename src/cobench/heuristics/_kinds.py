"""The kind guard every constructive heuristic opens with, and the limit slack."""

from __future__ import annotations

from ..problems.types import Instance, Payload, ProblemKind

# How far over its limit a route length or load still fits. It is within
# verify.TOLERANCE, so check calls feasible whatever a solver lets fit.
FIT_SLACK = 1e-9


def _require(inst: Instance, *kinds: ProblemKind) -> Payload:
    """The instance's payload, or ValueError when its kind is none of `kinds`."""
    if inst.kind not in kinds:
        names = "/".join(k.value for k in kinds)
        raise ValueError(f"expected a {names} instance, got {inst.kind.value}")
    return inst.payload
