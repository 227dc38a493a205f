from .encode import encode
from .parse import parse, strip_thinking
from .render import (
    PROMPT_TEMPLATE,
    format_objective,
    format_solution,
    render_prompt,
)
from .types import (
    GRAMMAR_BY_KIND,
    OutputGrammar,
    ParsedSolution,
    TextAttributedInstance,
)

__all__ = [
    "GRAMMAR_BY_KIND",
    "OutputGrammar",
    "PROMPT_TEMPLATE",
    "ParsedSolution",
    "TextAttributedInstance",
    "encode",
    "format_objective",
    "format_solution",
    "parse",
    "render_prompt",
    "strip_thinking",
]
