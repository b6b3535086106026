"""Every runtime dependency that pyproject.toml declares must be importable.

A declared dependency that cannot be imported makes `pip install` of the
package fail (or pull in something no code uses), while the test suite,
run from the source tree, would never notice.
"""
import importlib
import os
import re

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
