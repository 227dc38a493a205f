"""The package runs on numpy and requests alone.

scipy and networkx stay test-only: the routing neighbour pass and the graph
generators are in-tree, and importing the package must not pull either in.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_import_leaves_scipy_and_networkx_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, cobench, cobench.cli\n"
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_and_requests():
    import tomllib  # Python 3.11+

    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    names = {dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]}
    assert names == {"numpy", "requests"}
