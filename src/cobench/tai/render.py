"""Canonical solution text and prompt rendering."""

from __future__ import annotations

from typing import Optional

from ..problems.types import (
    ROUTING_KINDS,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    Solution,
    VertexSet,
)
from .types import GRAMMAR_BY_KIND, OutputGrammar, TextAttributedInstance

# Alpaca-style wrapper; instruction/input/response slots are filled verbatim.
PROMPT_TEMPLATE = (
    "Below is an instruction describing a combinatorial optimization problem. "
    "It is paired with an input that provides the data of the instance. \n"
    "Your task is to produce a feasible solution that optimizes (minimizes or "
    "maximizes) the given objective.\n\n"
    "### Instruction:{}\n\n### Input:{}\n\n### Response:{}"
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
    grammar = GRAMMAR_BY_KIND[kind]
    if grammar in (OutputGrammar.ROUTE,) and isinstance(sol, Route):
        body = _flat(sol.nodes)
    elif grammar is OutputGrammar.ROUTES and isinstance(sol, RouteSet):
        body = _nested(sol.routes)
    elif grammar is OutputGrammar.SET and isinstance(sol, VertexSet):
        body = _flat(sorted(sol.vertices))
    elif grammar is OutputGrammar.ORDER and isinstance(sol, JobOrder):
        body = _flat(j + 1 for j in sol.jobs)  # orders display 1-based
    elif grammar is OutputGrammar.SCHEDULE and isinstance(sol, MachineSchedules):
        body = _nested(sol.sequences)
    else:
        raise TypeError(
            f"{kind.value} cannot render a {type(sol).__name__}"
        )
    text = f"{grammar.label}: {body}"
    if objective is not None:
        text += f", Objective: {format_objective(kind, objective)}"
    return text


def render_prompt(tai: TextAttributedInstance, response: str = "") -> str:
    """Fill the Alpaca template with a TAI (and optionally a response)."""
    return PROMPT_TEMPLATE.format(tai.instruction, tai.input, response)
