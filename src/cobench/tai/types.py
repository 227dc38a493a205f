"""Types for text-attributed instances (TAIs)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from ..problems.types import SOLUTION_TAGS, SOLUTION_TYPE_BY_KIND, ProblemKind, Solution

# The answer label a solution text must carry: its solution type's tag,
# capitalized. An Order answer numbers jobs from ORDER_BASE.
OutputGrammar = Enum(
    "OutputGrammar", [(tag.upper(), tag.capitalize()) for tag in SOLUTION_TAGS.values()], type=str
)

GRAMMAR_BY_KIND: Mapping[ProblemKind, OutputGrammar] = {
    kind: OutputGrammar(SOLUTION_TAGS[solution_type].capitalize())
    for kind, solution_type in SOLUTION_TYPE_BY_KIND.items()
}

# Order answers and PFSP prompts number jobs from 1; a JobOrder from 0.
ORDER_BASE = 1


@dataclass(frozen=True)
class TextAttributedInstance:
    """The textual form of an instance: instruction + input, answering in
    its kind's grammar."""

    kind: ProblemKind
    instruction: str
    input: str

    @property
    def expected_output_grammar(self) -> OutputGrammar:
        return GRAMMAR_BY_KIND[self.kind]


@dataclass(frozen=True)
class ParsedSolution:
    """Result of parsing a model's output text.

    solution is None unless the text contained a well-formed answer of the
    expected grammar. stated_objective is whatever objective the text claimed
    (None if absent); scoring always recomputes the real objective.
    """

    solution: Optional[Solution]
    stated_objective: Optional[float]

    @property
    def format_ok(self) -> bool:
        """The zeta gate: a solution was read."""
        return self.solution is not None
