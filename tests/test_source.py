"""The runtime stays stdlib-only and free of floating point: every module of
the package imports only the standard library and names no float, and each
module but `__init__` uses every name it imports.  No module asserts.  The
summand cache has one writer, the series, a suite verdict one builder, the
suite runner, and a `LinForm` one builder, the record oracle."""

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


@pytest.mark.parametrize("path", [p for p in MODULES if not p.endswith("__init__.py")],
                         ids=os.path.basename)
def test_every_imported_name_is_used(path):
    # `__init__` imports names to export them; every other module reads each
    # name it imports, `from __future__` aside
    tree = _tree(path)
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted((line, name) for name, line in imported.items() if name not in used) == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_float_literal_or_name(path):
    bad = [(node.lineno, ast.unparse(node)) for node in ast.walk(_tree(path))
           if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
           or isinstance(node, ast.Name) and node.id == "float"]
    assert bad == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_assert_statement_or_assertion_error(path):
    # an assert vanishes under python -O, and `cli.main` maps only its own
    # error classes to exit codes, so an AssertionError would end in a
    # traceback
    bad = [(node.lineno, ast.unparse(node)) for node in ast.walk(_tree(path))
           if isinstance(node, ast.Assert)
           or isinstance(node, ast.Raise) and node.exc is not None
           and "AssertionError" in {n.id for n in ast.walk(node.exc)
                                    if isinstance(n, ast.Name)}]
    assert bad == []


# the dict methods that change the dict in place
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update"}


def _names_cache(node) -> bool:
    """Whether an expression is `_SUMMANDS`, an attribute of that name, or an
    item of either."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and node.id == "_SUMMANDS"
            or isinstance(node, ast.Attribute) and node.attr == "_SUMMANDS")


def _scoped(node, scope):
    """Each node below `node` with the dotted name of the function or class
    that holds it, `scope` itself at the top."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        yield from _scoped(child, inner)


def test_only_the_series_writes_the_summand_cache():
    # an assignment to `_SUMMANDS` or to an item of it, a `del`, or a call
    # of a mutating method, anywhere in the package; only the module-level
    # definition and `localize.dt4_degree0_series` may write
    writes = []
    for path in MODULES:
        module = os.path.basename(path)[:-3]
        for node, scope in _scoped(_tree(path), module):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                hit = node.func.attr in _MUTATORS and _names_cache(node.func.value)
            else:
                hit = (isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
                       and _names_cache(node))
            if hit:
                writes.append((scope, ast.unparse(node)))
    assert ("localize", "_SUMMANDS") in writes
    others = [w for w in writes if w != ("localize", "_SUMMANDS")]
    assert others and {scope for scope, _ in others} == {"localize.dt4_degree0_series"}


def _calls(name):
    """(scope, source) of each call in the package of `name`, bare or as an
    attribute."""
    calls = []
    for path in MODULES:
        module = os.path.basename(path)[:-3]
        for node, scope in _scoped(_tree(path), module):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append((scope, ast.unparse(node)))
    return calls


def test_only_the_record_oracle_builds_a_linform():
    # weights are int triples and codes everywhere else; `LinForm` is the
    # record oracle's own evaluator, so that its product shares no code
    # with `Summand.value`
    calls = _calls("LinForm")
    assert calls and {scope for scope, _ in calls} == {"localize.record_oracle_check"}, calls
