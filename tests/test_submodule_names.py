"""No package under cobench hides one of its submodules behind another object.

When a package's ``__init__`` re-exports a function under the name of the
module that defines it, ``import cobench.pkg.name as m`` binds the function,
and ``unittest.mock.patch("cobench.pkg.name.attr")`` sets an attribute on the
function instead of patching the module.
"""

import importlib
import pkgutil

import cobench

# These three shadow their modules as well. benchmarks/tracing.py names their
# module paths as trace targets, so they can only be renamed together with
# the benchmark.
KNOWN_SHADOWED = ["cobench.evalharness.metrics", "cobench.tai.encode", "cobench.tai.parse"]


def _packages():
    yield cobench
    for info in pkgutil.walk_packages(cobench.__path__, "cobench."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def test_no_package_attribute_shadows_its_submodule():
    shadowed = []
    for pkg in _packages():
        for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            module = importlib.import_module(info.name)
            if getattr(pkg, info.name.rpartition(".")[2]) is not module:
                shadowed.append(info.name)
    # Equality, so the list also shrinks when one of them is renamed.
    assert sorted(shadowed) == KNOWN_SHADOWED
