"""No module under src/cobench imports a name it never uses.

No linter ships with the test environment, so this is a small AST check:
every name an import binds must be read somewhere in the module, or be
re-exported through ``__all__``. ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cobench"


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_under_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for line, name in _unused_imports(ast.parse(path.read_text())):
            found.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_unused_and_spares_reexports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Dict, List\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: List[int]) -> None:\n"
        "    sys.exit(a)\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "Dict")]
