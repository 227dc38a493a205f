"""Solution text -> ParsedSolution.

The parser is total: any input string yields a ParsedSolution, never an
exception. It scans for the expected answer label ("Route:", "Set:", ...),
takes the LAST well-formed occurrence (models often restate their final
answer), reads the bracketed payload, and picks up a following
"Objective: <number>" if present.

At each label the payload is read in place by one
json.JSONDecoder.raw_decode from its '['. Only when that raises (a Python
tuple, a trailing comma, a single-quoted string) does the label cut out the
first balanced [...] and read it with ast.literal_eval. A label whose
payload gives no solution, or no literal at all, passes to the label before
it.

Where raw_decode reads a value, the literal read could give no other
solution: a solution is ints in one or two list levels, whose text holds no
string, so the cut would end where raw_decode ends and literal_eval would
read the same ints; a value holding a string could only be cut short inside
that string, which no literal reads.

Labels match in any case. An ASCII text is lowered once and scanned with a
case-sensitive lower-case pattern, whose literal prefix lets re skip ahead
to each candidate instead of trying every position; lowering an ASCII text
keeps every index, so the label ends are the ones the any-case pattern
finds. Text with a non-ASCII character keeps the IGNORECASE pattern,
because re's case folding also matches characters that lower() does not
map to ASCII letters: "ſet:" (long s) is a Set label.
"""

from __future__ import annotations

import ast
import json
import re
from itertools import chain
from typing import Optional, Tuple

from ..problems.types import (
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    Solution,
    VertexSet,
)
from .types import GRAMMAR_BY_KIND, OutputGrammar, ParsedSolution

# Both route grammars accept both labels: instruction text says "Route" but
# some outputs (and the nested grammar) use "Routes".
_ROUTE_GRAMMARS = (OutputGrammar.ROUTE, OutputGrammar.ROUTES)
_LABELS = {
    grammar: "Routes?" if grammar in _ROUTE_GRAMMARS else grammar.value
    for grammar in OutputGrammar
}
_LABEL_END = r"\s*\**\s*[:=]"
_LABEL_RES = {g: re.compile(label + _LABEL_END, re.IGNORECASE) for g, label in _LABELS.items()}
# Matched against text.lower() for ASCII text; see the module docstring.
_LOWER_LABEL_RES = {g: re.compile(label.lower() + _LABEL_END) for g, label in _LABELS.items()}

_OBJECTIVE_RE = re.compile(
    r"objective\s*\**\s*[:=]\s*\**\s*(-?\d+(?:\.\d+)?)", re.IGNORECASE
)

# Markdown adornment and whitespace tolerated between a label and its '['.
_LEAD_RE = re.compile(r"[ \t\r\n*_`]*")
_BRACKET_RE = re.compile(r"[\[\]]")
_DECODER = json.JSONDecoder()


def _scan_bracket(text: str, i: int) -> Optional[Tuple[str, int]]:
    """Return (bracketed substring, end index) for the first balanced
    [...] beginning at text[i], which is '['."""
    depth = 0
    for m in _BRACKET_RE.finditer(text, i):
        if m.group() == "[":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return text[i : m.end()], m.end()
    return None


def _as_int_list(obj) -> Optional[Tuple[int, ...]]:
    if not isinstance(obj, (list, tuple)) or not obj:
        return None
    # Neither reader makes an int subclass but bool, which the exact test rejects.
    return tuple(obj) if set(map(type, obj)) == {int} else None


def _as_nested_int_lists(obj) -> Optional[Tuple[Tuple[int, ...], ...]]:
    # Both readers make plain lists and tuples, never subclasses, so whole-list
    # type passes stand in for a per-row isinstance test.
    if (
        isinstance(obj, (list, tuple))
        and obj
        and set(map(type, obj)) <= {list, tuple}
        and all(obj)
        and set(map(type, chain.from_iterable(obj))) == {int}
    ):
        return tuple(map(tuple, obj))
    return None


def _payload_to_solution(kind: ProblemKind, obj) -> Optional[Solution]:
    grammar = GRAMMAR_BY_KIND[kind]
    if grammar is OutputGrammar.ROUTE:
        flat = _as_int_list(obj)
        return Route(flat) if flat is not None else None
    if grammar is OutputGrammar.ROUTES:
        nested = _as_nested_int_lists(obj)
        if nested is not None:
            return RouteSet(nested)
        flat = _as_int_list(obj)  # a single flat route is one vehicle
        return RouteSet((flat,)) if flat is not None else None
    if grammar is OutputGrammar.SET:
        if isinstance(obj, (list, tuple)) and len(obj) == 0:
            return VertexSet(frozenset())
        flat = _as_int_list(obj)
        return VertexSet.of(flat) if flat is not None else None
    if grammar is OutputGrammar.ORDER:
        flat = _as_int_list(obj)
        if flat is None:
            return None
        # Orders display 1-based; shift down. Bad ids then fail feasibility,
        # they never crash the parse.
        return JobOrder(tuple(j - 1 for j in flat))
    nested = _as_nested_int_lists(obj)
    return MachineSchedules(nested) if nested is not None else None


def _read_payload(kind: ProblemKind, text: str, i: int) -> Tuple[Optional[Solution], int]:
    """The solution whose payload starts at text[i], which is '[', or None,
    and the index after the payload. One raw_decode, and the bracket scan
    only where that raises; see the module docstring."""
    try:
        obj, end = _DECODER.raw_decode(text, i)
    except (ValueError, MemoryError, RecursionError):
        scanned = _scan_bracket(text, i)
        if scanned is None:
            return None, i
        payload_text, end = scanned
        try:
            obj = ast.literal_eval(payload_text)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            # TypeError: an unhashable key or set member, as in {[1]: 2}
            return None, i
    return _payload_to_solution(kind, obj), end


def _stated_objective(text: str, after: int) -> Optional[float]:
    m = _OBJECTIVE_RE.search(text, pos=after)
    return float(m.group(1)) if m else None


def parse(text, kind: ProblemKind) -> ParsedSolution:
    """Parse a model output for `kind`. Total function, never raises."""
    failed = ParsedSolution(solution=None, stated_objective=None)
    if not isinstance(text, str) or not text:
        return failed
    try:
        grammar = GRAMMAR_BY_KIND[kind]
        if text.isascii():
            labels = _LOWER_LABEL_RES[grammar].finditer(text.lower())
        else:
            labels = _LABEL_RES[grammar].finditer(text)
        positions = [m.end() for m in labels]
        for pos in reversed(positions):
            i = _LEAD_RE.match(text, pos).end()
            if not text.startswith("[", i):
                continue
            sol, end = _read_payload(kind, text, i)
            if sol is None:
                continue
            return ParsedSolution(solution=sol, stated_objective=_stated_objective(text, end))
        return failed
    except Exception:
        # Parsing is a gate, not a failure mode: anything unexpected is zeta=0.
        return failed


def strip_thinking(text: str) -> str:
    """Drop <think>...</think> spans (and an unterminated leading block)."""
    if "<think>" not in text:
        return text
    out = re.sub(r"<think>.*?</think>", "", text, flags=re.DOTALL)
    # An unclosed think block swallows the rest of the string.
    out = re.sub(r"<think>.*\Z", "", out, flags=re.DOTALL)
    return out
