"""Names that code outside the package looks up: the spans the benchmark
tracer wraps, and the package exports.  A deleted or renamed name fails here
instead of leaving a benchmark metric silently at zero."""

import importlib
import importlib.util
import os

import dt4calc
from dt4calc import suite


def _benchmark_spans():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(root, "benchmarks", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _benchmark_spans()


def test_traced_names_and_exports_resolve():
    missing = []
    for _, modname, path in SPANS.TARGETS:
        owner = importlib.import_module(f"dt4calc.{modname}")
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        # the tracer replaces a method in its class's own __dict__
        if owner is None or attr not in vars(owner):
            missing.append(f"dt4calc.{modname}.{path}")
    names = {crit for _, crit, _ in suite.CRITERIA}
    missing += [f"suite criterion {crit}" for crit in SPANS.CRITERIA if crit not in names]
    missing += [f"dt4calc.{name}" for name in dt4calc.__all__ if not hasattr(dt4calc, name)]
    assert missing == []
