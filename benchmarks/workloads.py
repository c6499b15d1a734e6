"""Workload definitions shared by run.py and its samples.

Why each workload exists (see also BENCHMARK.json):

- series-n5: the hot path.  Taylor `ext_characters` is most of it, and it is
  the only workload with `--jobs` above 1, so a worker-pool change shows
  here and nowhere else.
- sweep-n4: one process evaluates the n <= 4 series at 16 seeded vectors.
  15/16 of the fixed-point work repeats across vectors and the large
  entries stress exact evaluation, so caching and integer characters show
  here but not on series-n5.
- oracle-n4: the trust route.  Full-degree Taylor complexes, and fixed
  point data built twice per point, so oracle pruning and reuse show here.
- suite: the acceptance suite, the only workload that runs chow, series,
  d = 3 partitions and cyclic completion.
"""

from __future__ import annotations

import json
import os
import random

SUITE_S = "1,7,41,-49"

# argv of the command line workloads
CLI_ARGV = {
    "series-n5": ["dt4-series", "--n-max", "5", "--s", SUITE_S, "--jobs", "2"],
    "oracle-n4": ["dt4-series", "--n-max", "4", "--s", SUITE_S, "--check-oracle"],
    "suite": ["suite"],
}

SWEEP = "sweep-n4"
SWEEP_N = 4
SWEEP_VECTORS = 16
SWEEP_RANGE = 10 ** 6

WORKLOADS = ["series-n5", SWEEP, "oracle-n4", "suite"]

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def sweep_vectors(seed: int) -> list[list[int]]:
    """Parameter vectors of the sweep, made from the seed alone.

    s1, s2, s3 are uniform nonzero integers in [-10^6, 10^6] and s4 makes the
    sum zero.  No vector is ever dropped after the program has seen it.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(SWEEP_VECTORS):
        s = [rng.choice((-1, 1)) * rng.randint(1, SWEEP_RANGE) for _ in range(3)]
        s.append(-sum(s))
        out.append(s)
    return out


def load_pins() -> dict:
    """Pinned digests recorded at the commit that defined the benchmark."""
    with open(PINS_PATH) as fh:
        return json.load(fh)
