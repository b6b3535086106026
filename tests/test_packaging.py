"""Every runtime dependency that pyproject.toml declares must be importable,
and the library must import nothing else.

A declared dependency that cannot be imported makes `pip install` of the
package fail (or pull in something no code uses), while the test suite,
run from the source tree, would never notice; nor would it notice a library
module that imports a package only the tests install.
"""
import ast
import glob
import importlib
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def _dependencies():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["dependencies"]


@pytest.mark.parametrize("requirement", _dependencies())
def test_declared_dependency_imports(requirement):
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    importlib.import_module(name.lower().replace("-", "_"))


SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(PYPROJECT), "src", "fdprof",
                                        "*.py")))


def _imported(path):
    """Top-level names of the modules a source file imports; a relative
    import is fdprof's own."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "fdprof" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_library_imports_only_stdlib_and_numpy(path):
    """scipy, mpmath and hypothesis serve the tests only: the library
    imports nothing but the standard library, numpy and itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "fdprof"}
    assert sorted(set(_imported(path)) - allowed) == []
