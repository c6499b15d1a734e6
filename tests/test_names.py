"""Names that code outside the package looks up: the spans the benchmark
tracer wraps, the attributes its notes read, and the package exports.  A
deleted or renamed name fails here instead of leaving a benchmark metric
silently at zero."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import dt4calc
from dt4calc import suite
from dt4calc.localize import FixedPointData
from dt4calc.partitions import enumerate_partitions


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "benchmarks", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _benchmark_module("spans")


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


# spans that fixed points have not built since the Taylor complex left E1,
# and the `LinForm` evaluator, which only the record oracle calls since a
# summand record holds int triples: only the oracle workload reaches them
ORACLE_ONLY = {"partitions.DPartition.to_ideal", "taylor.ext_characters",
               "exact.Laurent.mul", "localize.vertex_character",
               "exact.LinForm.evaluate"}


@pytest.mark.parametrize("workload", ["oracle-n4", "series-n5", "sweep-n4", "suite"])
def test_oracle_workload_fires_every_span_the_runner_names(workload, monkeypatch):
    # one traced sample of the workload, as `benchmarks/run.py --self-test` runs it
    monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmarks"))
    fires = _benchmark_module("run").FIRES[workload]
    if workload != "oracle-n4":
        fires = [span for span in fires if span not in ORACLE_ONLY]
    argv = [sys.executable, os.path.join(ROOT, "benchmarks", "sample.py"),
            "--workload", workload, "--trace"]
    if workload == "sweep-n4":
        vectors = _benchmark_module("workloads").sweep_vectors(1)
        argv += ["--vectors", json.dumps(vectors)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("DT4_MAX_N", None)
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [o["error"] for o in result["outcomes"]] == [None] * len(result["outcomes"])
    if workload != "sweep-n4":
        assert [o["exit"] for o in result["outcomes"]] == [0]
    layers = result["layers"]
    assert [span for span in fires if layers[f"{span}.calls"] <= 0] == []
    if workload == "oracle-n4":
        # both checks run at each of the 41 points, and read the resolution
        # route computed once for each of the 8 orbits; they compare packed
        # codes, so the only Laurent products left are the 8 of
        # `euler_character`, and the closed form T is built once per point
        assert layers["localize.vertex_oracle_check.calls"] == 41
        assert layers["localize.obstruction_crosscheck.calls"] == 41
        assert layers["partitions.DPartition.to_ideal.calls"] == 8
        assert layers["taylor.ext_characters.calls"] == 8
        assert layers["taylor.euler_character.calls"] == 8
        assert layers["exact.Laurent.mul.calls"] == 8
        assert layers["localize.vertex_character.calls"] == 41
