"""The package runs on numpy and requests alone.

scipy and networkx stay test-only: the routing neighbour pass and the graph
generators are in-tree, and importing the package must not pull either in.
The test oracles need neither, so only the generator differential test skips
without networkx.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _run(code: str, *paths: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in paths] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_import_leaves_scipy_and_networkx_unloaded():
    proc = _run(
        "import sys, cobench, cobench.cli\n"
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))\n",
        REPO / "src",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_oracles_import_without_networkx():
    # A None entry in sys.modules makes `import networkx` raise ImportError.
    proc = _run(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import oracles\n"
        "print(oracles.pfsp_makespan_dag([[2, 3], [4, 1]], [1, 0]))\n",
        REPO / "src",
        REPO / "tests",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "9.0"


def test_runtime_dependencies_are_numpy_and_requests():
    import tomllib  # Python 3.11+

    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    names = {dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]}
    assert names == {"numpy", "requests"}
