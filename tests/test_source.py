"""The runtime stays stdlib-only and free of floating point: every module of
the package imports only the standard library and names no float."""

import ast
import glob
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "dt4calc")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def test_every_module_is_checked():
    assert len(MODULES) >= 10 and os.path.join(SRC, "localize.py") in MODULES


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_absolute_imports_are_stdlib(path):
    # relative imports (level > 0) stay inside the package
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad += [(node.lineno, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"__future__"}]
    assert bad == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_float_literal_or_name(path):
    bad = [(node.lineno, ast.unparse(node)) for node in ast.walk(_tree(path))
           if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
           or isinstance(node, ast.Name) and node.id == "float"]
    assert bad == []
