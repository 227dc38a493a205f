"""The package runs on numpy alone.

scipy and networkx stay test-only: the routing neighbour pass and the graph
generators are in-tree, and importing the package must not pull either in.
The test oracles need neither, so only the generator differential test skips
without networkx. Endpoint requests go through the standard library's
urllib.request, so importing the package loads no third-party HTTP client
either.
"""

import importlib.metadata
import os
import re
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
        "print(sorted(m for m in ('scipy', 'networkx', 'requests', 'urllib3')\n"
        "             if m in sys.modules))\n",
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


def runtime_dependency_names() -> set:
    """The package's runtime dependency names: from its installed metadata,
    else from pyproject.toml, whose parser tomllib is Python 3.11+ only."""
    try:
        deps = importlib.metadata.requires("cobench") or []
    except importlib.metadata.PackageNotFoundError:
        import tomllib

        deps = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["dependencies"]
    # Metadata lists the extras too, each with an `extra == "..."` marker.
    return {re.match(r"[A-Za-z0-9._-]+", d).group() for d in deps if "extra ==" not in d}


def test_runtime_dependencies_are_numpy():
    assert runtime_dependency_names() == {"numpy"}


def test_dependency_names_from_metadata_without_tomllib(tmp_path):
    # Python 3.10 has no tomllib; installed metadata must be enough there.
    # A None entry in sys.modules makes `import tomllib` raise ImportError.
    info = tmp_path / "cobench-0.1.0.dist-info"
    info.mkdir()
    (info / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: cobench\nVersion: 0.1.0\n"
        "Requires-Dist: numpy>=1.24\n"
        'Requires-Dist: pytest>=7.0; extra == "test"\n'
    )
    proc = _run(
        "import sys\n"
        "sys.modules['tomllib'] = None\n"
        "import test_runtime_deps\n"
        "print(sorted(test_runtime_deps.runtime_dependency_names()))\n",
        tmp_path,
        REPO / "tests",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "['numpy']"
