"""Acceptance checks, each one criterion with a stable name and a verdict.

Every check recomputes its claim and compares against frozen expected values
or an independent route.  The state carried between checks is what the
library keeps per process (partition levels and summand records), which the
same code builds on first use, and, within one `run_suite`, the vertex
oracle's fixed points, which the weight-structure check reuses.  So each
point is built once.
Timing limits are part of the verdict where a criterion carries one, but
measured times are never printed, so output stays byte stable run to run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .chow import (liqin_case, structure_sheaf_chi_check, surface_obstruction_identity,
                   vdim_ideal_cy4)
from .errors import Dt4Error
from .localize import (FixedPointData, OrientationData, TorusParams,
                       cyclic_completion_report, dt4_degree0_series,
                       one_box_symbolic_report, summand, vertex_oracle_check)
from .partitions import enumerate_partitions
from .series import convolution_oracle, goettsche_series, partition_numbers

# verified in the test suite: no tangent or obstruction weight of any
# partition with n <= 4 vanishes here, unlike at the documentation default
SUITE_PARAMS = TorusParams((1, 7, 41, -49))

LIQIN_EXPECTED = [
    (0, 1, -6, 4),
    (1, 1, -16, 9),
    (0, 0, -26, 14),
    (1, 0, -56, 29),
]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _timed(budget):
    """Wrap a check body so exceeding the stated runtime fails the check."""
    def deco(fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            if budget is not None and elapsed > budget:
                return CheckResult(result.name, False,
                                   f"{result.detail}; exceeded the {budget} s budget")
            return result
        return run
    return deco


@_timed(1.0)
def check_liqin_table(**_) -> CheckResult:
    rows = [liqin_case(e1, e2) for (e1, e2, _, _) in LIQIN_EXPECTED]
    got = [(r["eps1"], r["eps2"], int(r["chi"]), r["k"]) for r in rows]
    ok = got == LIQIN_EXPECTED
    return CheckResult("liqin-table", ok,
                       "all four cases exact" if ok else f"got {got}")


@_timed(1.0)
def check_chi_structure_sheaf(**_) -> CheckResult:
    rep = structure_sheaf_chi_check()
    ok = rep["ok"] and rep["direct"] == 2
    return CheckResult("chi-structure-sheaf", ok,
                       f"integral {rep['direct']}, ambient oracle {rep['oracle']}")


@_timed(None)
def check_vdim_law(**_) -> CheckResult:
    for n in range(11):
        for h02 in (0, 1):
            rep = vdim_ideal_cy4(n, h02)
            if rep["vdim"] != 2 * n - h02 or rep["chi"] != 2 - rep["vdim"]:
                return CheckResult("vdim-law", False, f"failed at n={n}, h02={h02}: {rep}")
    return CheckResult("vdim-law", True, "n <= 10, both holonomy cases")


@_timed(60.0)
def check_vertex_oracle(points: dict | None = None, **_) -> CheckResult:
    checked = 0
    for n in range(1, 4):
        for pi in enumerate_partitions(4, n):
            data = FixedPointData(pi)
            if points is not None:
                points[pi] = data
            ok, lhs, rhs = vertex_oracle_check(data)
            if not ok:
                return CheckResult("vertex-oracle", False,
                                   f"mismatch at {pi.id()}: {lhs} vs {rhs}")
            data.summand()
            checked += 1
    return CheckResult("vertex-oracle", checked == 15,
                       f"{checked} solid partitions, exact Laurent equality")


@_timed(None)
def check_weight_structure(points: dict | None = None, **_) -> CheckResult:
    """Structure of the tangent and obstruction weights for every n <= 4.

    The zero-weight clause is checked at the level of forms on the subtorus
    (no trivial sub-representation), which is the property that survives any
    generic parameter choice.  The documentation default (1,2,3,-6) is NOT
    generic past n = 1: some nonzero forms evaluate to zero there, starting
    with an obstruction weight at n = 2 and a tangent weight at n = 3.  The
    detail line counts those vanishing values rather than hiding them.

    A point the vertex oracle left in `points` is taken from there.
    """
    checked = 0
    pinned = TorusParams.default().s
    vanishing = 0
    first_vanish = None
    for n in range(1, 5):
        for pi in enumerate_partitions(4, n):
            data = (points or {}).pop(pi, None) or FixedPointData(pi)
            e2 = data.e2_weights
            if not data.e2_char.is_effective_integral():
                return CheckResult("weight-structure", False, f"{pi.id()}: not effective")
            if data.e2_char != data.e2_char.bar():
                return CheckResult("weight-structure", False, f"{pi.id()}: not self dual")
            if len(e2) % 2 != 0:
                return CheckResult("weight-structure", False, f"{pi.id()}: odd cardinality")
            if 2 * len(data.e1_weights) - len(e2) != 2 * n:
                return CheckResult("weight-structure", False, f"{pi.id()}: dimension law")
            if any(w.is_zero() for w in data.e1_weights + e2):
                return CheckResult("weight-structure", False,
                                   f"{pi.id()}: trivial sub-representation")
            for w in data.e1_weights + e2:
                if w.evaluate(pinned) == 0:
                    vanishing += 1
                    if first_vanish is None:
                        first_vanish = n
            checked += 1
    note = "all values nonzero at 1,2,3,-6"
    if vanishing:
        note = (f"{vanishing} weight values vanish at 1,2,3,-6 (first at "
                f"n = {first_vanish}); forms are all nonzero, so any generic "
                f"vector works")
    return CheckResult("weight-structure", checked == 41,
                       f"{checked} solid partitions, no trivial "
                       f"sub-representations; {note}")


@_timed(None)
def check_one_box_contribution(**_) -> CheckResult:
    rep = one_box_symbolic_report()
    if not rep["ok"]:
        return CheckResult("one-box-contribution", False, f"symbolic shape failed: {rep}")
    value = summand(enumerate_partitions(4, 1)[0]).value(TorusParams.default(), 1)
    if value * value != Fraction(25, 9):
        return CheckResult("one-box-contribution", False, f"value {value} is not +-5/3")
    return CheckResult(
        "one-box-contribution", True,
        f"numerator sign {rep['numerator_sign']:+d} times e3/e4, value {value}")


@_timed(60.0)
def check_cyclic_completion(**_) -> CheckResult:
    checked = 0
    for n in range(4):
        for pi3 in enumerate_partitions(3, n):
            rep = cyclic_completion_report(pi3)
            if not rep["ok"]:
                bad = [r["degree"] for r in rep["rows"] if not r["match"]]
                return CheckResult("cyclic-completion", False,
                                   f"{pi3.id()}: degrees {bad} disagree")
            checked += 1
    return CheckResult("cyclic-completion", True,
                       f"{checked} plane partitions (sizes 0..3), all degrees")


@_timed(1.0)
def check_goettsche_series(**_) -> CheckResult:
    g3 = goettsche_series(3, 20)
    if g3 != convolution_oracle(3, 20):
        return CheckResult("goettsche-series", False, "e = 3 routes disagree")
    if g3.as_ints()[:5] != [1, 3, 9, 22, 51]:
        return CheckResult("goettsche-series", False, f"e = 3 head {g3.as_ints()[:5]}")
    if goettsche_series(1, 50).as_ints() != partition_numbers(50):
        return CheckResult("goettsche-series", False, "e = 1 is not the partition numbers")
    return CheckResult("goettsche-series", True,
                       "e = 3 vs convolution to q^20, e = 1 vs pentagonal to q^50")


@_timed(None)
def check_surface_identity(**_) -> CheckResult:
    for n in range(6):
        rep = surface_obstruction_identity((1, 0, -n))
        if not rep["ok"] or rep["lhs"] != 4 * n + 1:
            return CheckResult("surface-identity", False, f"(1,0,-{n}): {rep}")
    rep = surface_obstruction_identity((2, 0, 0))
    if not rep["ok"] or rep["lhs"] != 4:
        return CheckResult("surface-identity", False, f"(2,0,0): {rep}")
    return CheckResult("surface-identity", True,
                       "(1,0,-n) gives 4n+1 for n <= 5; (2,0,0) gives 4")


@_timed(None)
def check_orientation_flip(orientation: OrientationData | None = None,
                           orientation_error: str | None = None, **_) -> CheckResult:
    if orientation_error is not None:
        return CheckResult("orientation-flip", False,
                           f"orientation data rejected: {orientation_error}")
    base = orientation or OrientationData()
    target = enumerate_partitions(4, 2)[1]
    flipped = base.flipped(target.id())
    c0, rows0 = dt4_degree0_series(2, SUITE_PARAMS, base, want_details=True)
    c1, rows1 = dt4_degree0_series(2, SUITE_PARAMS, flipped, want_details=True)
    v0 = {pid: v for (_, pid, v) in rows0}
    v1 = {pid: v for (_, pid, v) in rows1}
    for pid in v0:
        want = -v0[pid] if pid == target.id() else v0[pid]
        if v1[pid] != want:
            return CheckResult("orientation-flip", False, f"summand {pid} moved wrongly")
    if v0[target.id()] == 0:
        return CheckResult("orientation-flip", False, "target summand vanishes, no signal")
    if c1[2] - c0[2] != -2 * v0[target.id()]:
        return CheckResult("orientation-flip", False, "coefficient shift is off")
    return CheckResult("orientation-flip", True,
                       f"flipping {target.id()} negates exactly its summand")


@_timed(None)
def check_determinism(**_) -> CheckResult:
    from .cli import series_payload  # the CLI imports this module
    one = json.dumps(series_payload(3, SUITE_PARAMS, OrientationData(), jobs=1), indent=2)
    many = json.dumps(series_payload(3, SUITE_PARAMS, OrientationData(), jobs=4), indent=2)
    ok = one.encode() == many.encode()
    return CheckResult("determinism", ok,
                       "series report bytes agree for 1 and 4 worker runs" if ok
                       else "thread count changed the bytes")


CRITERIA = [
    ("1", "liqin-table", check_liqin_table),
    ("2", "chi-structure-sheaf", check_chi_structure_sheaf),
    ("3", "vdim-law", check_vdim_law),
    ("4", "vertex-oracle", check_vertex_oracle),
    ("5", "weight-structure", check_weight_structure),
    ("6", "one-box-contribution", check_one_box_contribution),
    ("7", "cyclic-completion", check_cyclic_completion),
    ("8", "goettsche-series", check_goettsche_series),
    ("9", "surface-identity", check_surface_identity),
    ("10", "orientation-flip", check_orientation_flip),
    ("11", "determinism", check_determinism),
]


def run_suite(only: str | None = None, orientation_path: str | None = None):
    """Run the acceptance checks, optionally filtered by name substring."""
    orientation = None
    orientation_error = None
    if orientation_path is not None:
        try:
            orientation = OrientationData.from_file(orientation_path)
        except (OSError, ValueError, Dt4Error) as e:
            orientation_error = str(e)
    points = {}  # fixed points the vertex oracle builds for the weight structure
    results = []
    for number, name, fn in CRITERIA:
        if only and only not in name:
            continue
        result = fn(orientation=orientation, orientation_error=orientation_error,
                    points=points)
        results.append((number, result))
    return results
