"""The number of settable values under src/cobench does not grow by accident.

A settable value is a function or lambda parameter with a default, a
``**kwargs`` parameter (which passes any setting on), or a field of a
dataclass whose name ends in ``Config`` or ``Budget``. The count is pinned
by equality, so a change that adds a setting, or removes one, also
changes the number here on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cobench"

SETTABLE_VALUES = 53


def _settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
            count += node.args.kwarg is not None
        elif isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Budget")):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_settable_value_count():
    total = sum(_settable_values(ast.parse(p.read_text())) for p in SRC.rglob("*.py"))
    assert total == SETTABLE_VALUES


def test_scan_counts_defaults_and_config_fields():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "def h(a, *args, **params): pass\n"
        "class RunConfig:\n"
        "    n: int\n"
        "    seed: int = 0\n"
        "    def with_seed(self, seed=0): pass\n"
        "class Other:\n"
        "    k: int = 3\n"
    )
    assert _settable_values(tree) == 7
