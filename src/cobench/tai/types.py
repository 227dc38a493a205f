"""Types for text-attributed instances (TAIs)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Tuple

from ..problems.types import ProblemKind, Solution


class OutputGrammar(str, Enum):
    """The answer label a solution text must carry, per problem kind."""

    ROUTE = "Route"        # flat node list
    ROUTES = "Routes"      # nested per-vehicle lists
    SET = "Set"            # flat vertex list
    ORDER = "Order"        # flat job list, displayed 1-based
    SCHEDULE = "Schedule"  # nested per-machine job lists

    @property
    def label(self) -> str:
        return self.value


GRAMMAR_BY_KIND: Mapping[ProblemKind, OutputGrammar] = {
    ProblemKind.TSP: OutputGrammar.ROUTE,
    ProblemKind.OP: OutputGrammar.ROUTE,
    ProblemKind.CVRP: OutputGrammar.ROUTES,
    ProblemKind.MIS: OutputGrammar.SET,
    ProblemKind.MVC: OutputGrammar.SET,
    ProblemKind.PFSP: OutputGrammar.ORDER,
    ProblemKind.JSSP: OutputGrammar.SCHEDULE,
}


@dataclass(frozen=True)
class HeuristicFeatures:
    """Per-entity hint lists embedded in the TAI input.

    entries[e] holds up to k (id, value) pairs for entity e:
    routing -> nearest neighbors with distances (ascending),
    graphs -> neighbors with the largest degrees (descending),
    PFSP -> per machine, the jobs with the lowest processing times,
    JSSP -> per job, the operation indices with the lowest durations.
    """

    entries: Tuple[Tuple[Tuple[int, float], ...], ...]


@dataclass(frozen=True)
class TextAttributedInstance:
    """The textual form of an instance: instruction + input + answer grammar."""

    kind: ProblemKind
    instruction: str
    input: str
    expected_output_grammar: OutputGrammar


@dataclass(frozen=True)
class ParsedSolution:
    """Result of parsing a model's output text.

    format_ok is the zeta gate: the text contained a well-formed answer of the
    expected grammar. stated_objective is whatever objective the text claimed
    (None if absent); scoring always recomputes the real objective.
    """

    solution: Optional[Solution]
    stated_objective: Optional[float]
    format_ok: bool
