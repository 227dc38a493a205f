"""Canonical solution text and prompt rendering."""

from __future__ import annotations

from typing import Optional

from ..problems.types import (
    NESTED_SOLUTION_TYPES,
    ROUTING_KINDS,
    SOLUTION_TYPE_BY_KIND,
    JobOrder,
    ProblemKind,
    Solution,
    VertexSet,
)
from .types import GRAMMAR_BY_KIND, ORDER_BASE, TextAttributedInstance

# Alpaca-style wrapper; instruction and input slots are filled verbatim.
PROMPT_TEMPLATE = (
    "Below is an instruction describing a combinatorial optimization problem. "
    "It is paired with an input that provides the data of the instance. \n"
    "Your task is to produce a feasible solution that optimizes (minimizes or "
    "maximizes) the given objective.\n\n"
    "### Instruction:{}\n\n### Input:{}\n\n### Response:"
)

# Routing objectives are real-valued distances; the rest are integral.
_REAL_VALUED = ROUTING_KINDS


def _flat(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def _nested(rows) -> str:
    return "[" + ", ".join(_flat(r) for r in rows) + "]"


def format_objective(kind: ProblemKind, value: float) -> str:
    if kind in _REAL_VALUED:
        return f"{value:.2f}"
    return str(int(round(value)))


def format_solution(kind: ProblemKind, sol: Solution, objective: Optional[float]) -> str:
    """Render a solution in the canonical answer grammar for `kind`.

    The objective is printed at 2 decimals for routing kinds and as an
    integer otherwise; omit it by passing None.
    """
    if not isinstance(sol, SOLUTION_TYPE_BY_KIND[kind]):
        raise TypeError(f"{kind.value} cannot render a {type(sol).__name__}")
    (ids,) = vars(sol).values()
    if isinstance(sol, VertexSet):
        ids = sorted(ids)
    elif isinstance(sol, JobOrder):
        ids = [j + ORDER_BASE for j in ids]
    body = _nested(ids) if isinstance(sol, NESTED_SOLUTION_TYPES) else _flat(ids)
    text = f"{GRAMMAR_BY_KIND[kind].value}: {body}"
    if objective is not None:
        text += f", Objective: {format_objective(kind, objective)}"
    return text


def render_prompt(tai: TextAttributedInstance) -> str:
    """Fill the Alpaca template with a TAI."""
    return PROMPT_TEMPLATE.format(tai.instruction, tai.input)
