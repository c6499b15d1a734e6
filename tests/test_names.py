"""Names that code outside the package looks up: the spans the benchmark
tracer wraps, the attributes its notes read, and the package exports.  A
deleted or renamed name fails here instead of leaving a benchmark metric
silently at zero."""

import importlib
import importlib.util
import os

import dt4calc
from dt4calc import suite
from dt4calc.localize import FixedPointData
from dt4calc.partitions import enumerate_partitions


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


def test_attributes_the_tracer_notes_read_resolve():
    # the notes on localize.FixedPointData and taylor.ext_characters
    pi = enumerate_partitions(4, 2)[1]
    data = FixedPointData(pi)
    assert data.partition == pi
    assert len(data.e1_weights) == sum(data.e1.values())
    assert len(data.e2_weights) == sum(data.e2.values())
    ideal = pi.to_ideal()
    assert len(ideal.gens) > 0 and len(ideal.staircase()) == pi.size
