"""dt4calc benchmark runner.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seconds S --trace 1
    python3 benchmarks/run.py --self-test

NAME is one of series-n5, sweep-n4, oracle-n4, suite (BENCHMARK.json says
why each exists), or `all`, which interleaves the four sample by sample so
that machine drift falls on each alike.  The program is run from `src/` of
the checkout; there is nothing to build.

Every sample is a fresh interpreter (sample.py) with PYTHONHASHSEED fixed
and DT4_MAX_N cleared, and each is followed by a fresh interpreter that
only imports, so set-up time has twice as many samples as the workload.
Samples repeat in a closed loop until the next round would end past S
seconds, with at least three rounds.  With --trace 1 each round runs one
untraced and one traced sample, in alternating order, and the tracing
overhead is the ratio of their median wall_norm values, less one.

A shared two-core virtual machine can change speed by up to 25% in phases
of tens of seconds, the same for every process, so the median wall time of
one run is reported next to wall_norm, the median over samples of wall time
divided by probe_s, the time of a fixed exact-arithmetic task run in the
same interpreter next to the workload's calls (sample.py says where).  That task uses no dt4calc code, so a change to dt4calc moves
wall_norm exactly as it moves wall time, while the machine's phases mostly
cancel.

Every operation is checked: the stdout digest and exit code of a command
line workload against pins.json, and every sweep vector against the closed
form of c_0 and c_1, and against its pinned coefficient digest when the seed
has one.  A mismatch is a failed operation and is never skipped.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import SWEEP, WORKLOADS, load_pins, sweep_vectors

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3
CHILD_TIMEOUT = 60
SPANS_DIR = ".bench_out"

# spans that must fire on the workload that exercises them (--self-test)
_POINT_SPANS = [
    "partitions.enumerate_partitions", "partitions.DPartition.to_ideal",
    "taylor.ext_characters", "exact.Laurent.mul", "exact.LinForm.evaluate",
    "localize.FixedPointData", "localize.vertex_character", "localize.half_euler",
    "localize.contribution", "localize.dt4_degree0_series",
]
FIRES = {
    "series-n5": _POINT_SPANS + ["cli.main"],
    SWEEP: _POINT_SPANS,
    "oracle-n4": _POINT_SPANS + ["cli.main", "taylor.euler_character",
                                 "localize.vertex_oracle_check",
                                 "localize.obstruction_crosscheck"],
    "suite": ["cli.main", "localize.cyclic_completion_report",
              "series.goettsche_series", "series.convolution_oracle",
              "chow.liqin_case", "chow.structure_sheaf_chi_check",
              "chow.vdim_ideal_cy4", "chow.surface_obstruction_identity"],
}


def quartiles(values):
    """(q1, median, q3) of the values, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def git_sha() -> str:
    """HEAD of the checkout, read from .git without calling git; the
    benchmark may run from a copy that is not a repository."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, which names the code measured
    when there is no git SHA."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def context() -> dict:
    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


class Runner:
    """Spawns samples and checks every operation they report."""

    def __init__(self, seed: int):
        self.pins = load_pins()
        self.vectors = sweep_vectors(seed)
        self.sweep_pins = self.pins[SWEEP].get(str(seed))
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.path.abspath("src"))
        self.env.pop("DT4_MAX_N", None)
        self.failures: list[str] = []

    def spawn(self, workload: str, *flags: str) -> dict | None:
        cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload,
               *flags]
        if workload == SWEEP:
            cmd += ["--vectors", json.dumps(self.vectors)]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{workload}: sample timed out after {CHILD_TIMEOUT} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failures.append(f"{workload}: sample exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            return None
        return json.loads(lines[-1])

    def sample(self, workload: str, traced: bool) -> tuple[dict | None, int, int]:
        """One sample with its operations checked: (result, attempted, failed)."""
        flags = []
        if traced:
            os.makedirs(SPANS_DIR, exist_ok=True)
            flags = ["--trace", "--spans", os.path.join(SPANS_DIR, f"spans-{workload}.jsonl")]
        result = self.spawn(workload, *flags)
        ops = len(self.vectors) if workload == SWEEP else 1
        if result is None:
            return None, ops, ops
        failed = 0
        for i, out in enumerate(result["outcomes"]):
            why = self.check(workload, i, out)
            if why is not None:
                failed += 1
                self.failures.append(f"{workload} operation {i}: {why}")
        return result, len(result["outcomes"]), failed

    def check(self, workload: str, i: int, out: dict) -> str | None:
        if out["error"] is not None:
            return out["error"]
        if workload == SWEEP:
            if self.sweep_pins is not None and out["digest"] != self.sweep_pins[i]:
                return f"coefficient digest {out['digest']} differs from the pinned one"
            return None
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        if out["digest"] != self.pins["stdout_sha256"][workload]:
            return f"stdout digest {out['digest']} differs from the pinned one"
        return None


def measure(runner: Runner, workloads, seconds: float, trace: bool) -> dict:
    """Closed loop of rounds; a round runs one sample (two with trace) of
    each workload, each followed by an import-only sample."""
    data = {w: {"plain": [], "traced": [], "setup": [], "attempted": 0, "failed": 0}
            for w in workloads}
    runner.spawn(workloads[0], "--import-only")  # fills the bytecode cache; not measured
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for w in workloads:
            d = data[w]
            kinds = [False] if not trace else [rounds % 2 == 1, rounds % 2 == 0]
            for traced in kinds:
                result, attempted, failed = runner.sample(w, traced)
                d["attempted"] += attempted
                d["failed"] += failed
                if result is not None:
                    d["traced" if traced else "plain"].append(result)
                    d["setup"].append(result["setup_s"])
            imported = runner.spawn(w, "--import-only")
            if imported is not None:
                d["setup"].append(imported["setup_s"])
        last = time.perf_counter() - t0
        rounds += 1
    return data


def end_to_end(d: dict) -> tuple[dict, dict]:
    """Metrics and their sample counts and quartiles, for the human lines."""
    series = {
        "wall_s": [r["wall_s"] for r in d["plain"]],
        "probe_s": [r["probe_s"] for r in d["plain"]],
        "wall_norm": [r["wall_s"] / r["probe_s"] for r in d["plain"]],
        "setup_s": d["setup"],
        "peak_rss_mb": [r["peak_rss_mb"] for r in d["plain"]],
    }
    metrics, spread = {}, {}
    for name, values in series.items():
        if values:
            q1, med, q3 = quartiles(values)
            metrics[name] = med
            spread[name] = f"median of {len(values)} samples, quartiles {q1:.6g} .. {q3:.6g}"
    attempted = d["attempted"]
    metrics["ok_frac"] = (attempted - d["failed"]) / attempted if attempted else 0.0
    spread["ok_frac"] = f"{d['failed']} of {attempted} operations failed"
    return metrics, spread


def per_layer(d: dict) -> dict:
    traced = [r["layers"] for r in d["traced"]]
    if not traced:
        return {}
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    if d["plain"]:
        norm = lambda rs: statistics.median(r["wall_s"] / r["probe_s"] for r in rs)
        out["trace.overhead_frac"] = norm(d["traced"]) / norm(d["plain"]) - 1
    return out


def declared() -> dict:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def self_test() -> int:
    """One traced sample of each workload: every named span fires where
    expected, and the metric names agree with BENCHMARK.json."""
    runner = Runner(seed=1)
    spec = declared()
    problems = []
    every = set().union(*FIRES.values())
    for w in WORKLOADS:
        result, attempted, failed = runner.sample(w, traced=True)
        if result is None or failed:
            problems.append(f"{w}: {failed} of {attempted} operations failed")
            continue
        layers = result["layers"]
        for span in FIRES[w]:
            if layers[f"{span}.calls"] <= 0:
                problems.append(f"{w}: span {span} never fired")
        if w == "suite":
            for name, value in layers.items():
                if name.startswith("suite.check.") and value <= 0:
                    problems.append(f"suite: {name[:-2]} never fired")
        names = set(layers) | {"trace.overhead_frac"}
        if names != set(spec["per_layer"]):
            problems.append(f"{w}: layer metrics differ from BENCHMARK.json: "
                            f"{sorted(names ^ set(spec['per_layer']))}")
        print(f"{w}: {sum(layers[f'{s}.calls'] > 0 for s in FIRES[w])} of "
              f"{len(FIRES[w])} named spans fired")
    unexercised = {n[:-len(".calls")] for n in spec["per_layer"]
                   if n.endswith(".calls")} - every
    if unexercised:
        problems.append(f"spans no workload is expected to fire: {sorted(unexercised)}")
    for p in problems + runner.failures:
        print(f"FAIL {p}")
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "dt4calc", "__init__.py")):
        print("error: run from the root of a dt4calc checkout (no src/dt4calc here)",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    spec = declared()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    start_ctx = context()
    print("context at start:", json.dumps(start_ctx))
    runner = Runner(args.seed)
    data = measure(runner, workloads, args.seconds, bool(args.trace))

    out = {}
    attempted = failed = 0
    for w in workloads:
        d = data[w]
        attempted += d["attempted"]
        failed += d["failed"]
        metrics, spread = end_to_end(d)
        shown = dict(spec["end_to_end"], wall_s="s", probe_s="s")
        for name, unit in shown.items():
            print(f"{w} {name} {metrics.get(name, float('nan')):.6g} {unit} "
                  f"({spread.get(name, 'no samples')})")
        layers = per_layer(d) if args.trace else {}
        for name, unit in spec["per_layer"].items():
            if name in layers:
                print(f"{w} {name} {layers[name]:.6g} {unit}")
        chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = layers if args.trace else metrics
        for name, unit in chosen.items():
            key = name if len(workloads) == 1 else f"{w}:{name}"
            out[key] = {"value": values.get(name, 0.0), "unit": unit}
        if len(workloads) > 1 and args.trace:
            for name, unit in spec["end_to_end"].items():
                out[f"{w}:{name}"] = {"value": metrics.get(name, 0.0), "unit": unit}
    for f in runner.failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("context at end:", json.dumps({"loadavg": list(os.getloadavg())}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
