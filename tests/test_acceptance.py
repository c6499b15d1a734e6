"""Acceptance gate: every check from the suite registry, one line each.

Each test runs one criterion end to end, prints a single PASS or FAIL line
with the check's own diagnostic detail, and asserts the verdict.  A check
returns (ok, detail); its name is the registry's.  Runtime budgets are
enforced inside the checks themselves, so a slow run fails here rather than
just looking slow.  A second test breaks, one at a time, what a check calls
and asserts the row the suite prints for it, so every failure detail is one
that can be reached.
"""

from types import SimpleNamespace

import pytest

from dt4calc import localize, suite
from dt4calc.chow import vdim_ideal_cy4
from dt4calc.localize import TorusParams
from dt4calc.series import convolution_oracle, goettsche_series
from dt4calc.suite import CRITERIA, run_suite


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[f"{num}-{name}" for num, name, _ in CRITERIA])
def test_criterion(number, name, fn, capsys):
    ok, detail = fn(orientation=None, orientation_error=None)
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"{verdict} criterion {number} [{name}]: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _vdim_off_at_3_1(n, h02):
    rep = vdim_ideal_cy4(n, h02)
    return {**rep, "chi": rep["chi"] + 1} if (n, h02) == (3, 1) else rep


# the point whose sign criterion 10 flips
_TARGET = "0,0,0,0;0,0,1,0"


def _ignore_orientation(n, params, orientation, want_details):
    return localize.dt4_degree0_series(n, params, want_details=want_details)


def _target_vanishes(n, params, orientation, want_details):
    coeffs, rows = localize.dt4_degree0_series(n, params, orientation, want_details)
    return coeffs, [(m, pid, 0 if pid == _TARGET else v) for m, pid, v in rows]


def _reference_coefficients(n, params, orientation, want_details):
    return (localize.dt4_degree0_series(n, params),
            localize.dt4_degree0_series(n, params, orientation, want_details)[1])


# (criterion, {suite-module name: replacement}, the detail its row prints)
BROKEN = {
    "vdim": ("vdim-law", {"vdim_ideal_cy4": _vdim_off_at_3_1},
             "failed at n=3, h02=1: {'n': 3, 'h02': 1, 'chi': -2, 'vdim': 5}"),
    "vertex-mismatch": ("vertex-oracle", {
        "vertex_oracle_check": lambda data, memo: (data.partition.size < 2, "lhs", "rhs")},
        "mismatch at 0,0,0,0;0,0,0,1: lhs vs rhs"),
    "one-box-value": ("one-box-contribution", {
        "TorusParams": SimpleNamespace(default=lambda: TorusParams((1, 1, 1, -3)))},
        "value -8/3 is not +-5/3"),
    "cyclic-degrees": ("cyclic-completion", {
        "cyclic_completion_report": lambda pi3: {
            "ok": pi3.size < 2,
            "rows": [{"degree": i, "match": i not in (1, 3)} for i in range(5)]}},
        "0,0,0;0,0,1: degrees [1, 3] disagree"),
    "goettsche-routes": ("goettsche-series", {"convolution_oracle": lambda e, n: []},
                         "e = 3 routes disagree"),
    "goettsche-head": ("goettsche-series", {
        "goettsche_series": lambda e, n: goettsche_series(e + 1, n),
        "convolution_oracle": lambda e, n: convolution_oracle(e + 1, n)},
        "e = 3 head [1, 4, 14, 40, 105]"),
    "goettsche-partitions": ("goettsche-series", {"partition_numbers": lambda n: []},
                             "e = 1 is not the partition numbers"),
    "surface-line": ("surface-identity", {
        "surface_obstruction_identity": lambda c: {"ok": c != (1, 0, -2), "lhs": 1 - 4 * c[2]}},
        "(1,0,-2): {'ok': False, 'lhs': 9}"),
    "surface-double": ("surface-identity", {
        "surface_obstruction_identity": lambda c: {"ok": True, "lhs": 1 - 4 * c[2]}},
        "(2,0,0): {'ok': True, 'lhs': 1}"),
    "flip-moved": ("orientation-flip", {"dt4_degree0_series": _ignore_orientation},
                   f"summand {_TARGET} moved wrongly"),
    "flip-vanishes": ("orientation-flip", {"dt4_degree0_series": _target_vanishes},
                      "target summand vanishes, no signal"),
    "flip-shift": ("orientation-flip", {"dt4_degree0_series": _reference_coefficients},
                   "coefficient shift is off"),
}


@pytest.mark.parametrize("case", list(BROKEN))
def test_a_broken_input_fails_its_criterion_with_its_detail(case, monkeypatch):
    only, patches, detail = BROKEN[case]
    for name, replacement in patches.items():
        monkeypatch.setattr(suite, name, replacement)
    [row] = run_suite(only=only)
    assert (row["ok"], row["detail"]) == (False, detail)
