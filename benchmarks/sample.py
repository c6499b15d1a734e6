"""One benchmark sample, run by run.py in a fresh interpreter.

Usage: python3 benchmarks/sample.py --workload NAME [--trace] [--import-only]
       [--vectors JSON] [--spans FILE]

The interpreter is fresh so every sample pays the cold module caches a
command line call pays.  Prints one JSON object on stdout:

- setup_s: time to import dt4calc.cli (dt4calc for the sweep);
- with --import-only nothing else;
- wall_s: time of the workload's calls, after import;
- probe_s: seconds per run of a fixed exact-arithmetic task that uses no
  dt4calc code, which gauges the machine's speed while the workload ran:
  four runs just before and four just after a command line call, and one
  before each sweep vector and one after the last;
- peak_rss_mb: ru_maxrss of this process plus its reaped children;
- outcomes: one entry per operation, with the stdout digest, exit code or
  independent check that run.py compares against its pins;
- layers: per-layer metrics, with --trace.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

from workloads import CLI_ARGV, SWEEP, SWEEP_N

PROBE_N = 24
PROBE_REPS = 4


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_check(s, coeffs) -> str | None:
    """Independent check of one sweep vector: c_0 = 1 and c_1 equals
    (s1+s2)(s1+s3)(s2+s3)/(s1 s2 s3 s4).  Returns the failure, or None."""
    s1, s2, s3, s4 = (Fraction(x) for x in s)
    sigma = (s1 + s2) * (s1 + s3) * (s2 + s3) / (s1 * s2 * s3 * s4)
    if len(coeffs) != SWEEP_N + 1:
        return f"{len(coeffs)} coefficients, expected {SWEEP_N + 1}"
    if coeffs[0] != 1:
        return f"c_0 = {coeffs[0]}, expected 1"
    if coeffs[1] != sigma:
        return f"c_1 = {coeffs[1]}, expected {sigma}"
    return None


def speed_probe(reps: int) -> float:
    """Seconds per rank of one seeded 24 x 24 matrix with entries 0 and +-1,
    by Gaussian elimination over Fraction, taken reps times: the kind of work
    the Taylor route does, written here so that no change to dt4calc moves it."""
    rng = random.Random(0)
    base = [[rng.choice((-1, 0, 0, 1)) for _ in range(PROBE_N)] for _ in range(PROBE_N)]
    t0 = time.perf_counter()
    for _ in range(reps):
        m = [[Fraction(x) for x in row] for row in base]
        rank = 0
        for col in range(PROBE_N):
            piv = next((i for i in range(rank, PROBE_N) if m[i][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = 1 / m[rank][col]
            m[rank] = [x * inv for x in m[rank]]
            for i in range(PROBE_N):
                if i != rank and m[i][col]:
                    c = m[i][col]
                    m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
            rank += 1
    return (time.perf_counter() - t0) / reps


def run_cli(argv) -> tuple[float, float, list[dict]]:
    from dt4calc import cli
    before = speed_probe(PROBE_REPS)
    buf = io.StringIO()
    code = None
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    probe = (before + speed_probe(PROBE_REPS)) / 2
    return wall, probe, [{"exit": code, "digest": digest(buf.getvalue()), "error": error}]


def run_sweep(vectors) -> tuple[float, float, list[dict]]:
    from dt4calc import TorusParams, dt4_degree0_series
    wall = 0.0
    probes = [speed_probe(1)]
    outcomes = []
    for s in vectors:
        coeffs = None
        error = None
        t0 = time.perf_counter()
        try:
            coeffs = dt4_degree0_series(SWEEP_N, TorusParams(s))
        except Exception as e:
            error = f"{type(e).__name__}: {e}"
        wall += time.perf_counter() - t0
        probes.append(speed_probe(1))
        if coeffs is None:
            outcomes.append({"digest": None, "error": error})
        else:
            outcomes.append({"digest": digest(",".join(str(c) for c in coeffs)),
                             "error": sweep_check(s, coeffs)})
    return wall, sum(probes) / len(probes), outcomes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--vectors", default="[]")
    ap.add_argument("--spans")
    args = ap.parse_args()

    t0 = time.perf_counter()
    if args.workload == SWEEP:
        import dt4calc  # noqa: F401
    else:
        import dt4calc.cli  # noqa: F401
    result = {"setup_s": time.perf_counter() - t0}
    if args.import_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    if args.workload == SWEEP:
        wall, probe, outcomes = run_sweep(json.loads(args.vectors))
    else:
        wall, probe, outcomes = run_cli(CLI_ARGV[args.workload])
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(wall_s=wall, probe_s=probe, peak_rss_mb=kb / 1024, outcomes=outcomes)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
