"""Acceptance gate: every check from the suite registry, one line each.

Each test runs one criterion end to end, prints a single PASS or FAIL line
with the check's own diagnostic detail, and asserts the verdict.  A check
returns (ok, detail); its name is the registry's.  Runtime budgets are
enforced inside the checks themselves, so a slow run fails here rather than
just looking slow.
"""

import pytest

from dt4calc.suite import CRITERIA


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[f"{num}-{name}" for num, name, _ in CRITERIA])
def test_criterion(number, name, fn, capsys):
    ok, detail = fn(orientation=None, orientation_error=None)
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"{verdict} criterion {number} [{name}]: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"
