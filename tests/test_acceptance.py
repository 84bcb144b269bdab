"""Acceptance suite: one test per row of `verify.CHECKS`, named by its check
id and printing its PASS/FAIL line (run pytest with -s or check the
captured output).  `pytest tests/test_acceptance.py -k 5d` runs one check.

What checks 3/3b, 5d and 10b compare, and why, is in the README's "Known
numerical limits" section; each check's detail holds its measured values.
"""

import pytest

from andortrees import verify
from andortrees.verify import CHECKS, SUITES, run_check, run_suite


@pytest.mark.parametrize("row", CHECKS, ids=[row[0] for row in CHECKS])
def test_check(row):
    result = run_check(*row)
    print(result.line())
    assert result.passed, f"{result.name}: {result.detail}"


def test_check_table_is_whole():
    ids = [row[0] for row in CHECKS]
    assert len(set(ids)) == len(ids)
    owned = SUITES["exact"] + SUITES["asymptotic"] + SUITES["montecarlo"]
    # each suite runs whole criteria, and the three run each criterion once
    assert sorted(owned) == list(range(1, 11)) == sorted({row[1] for row in CHECKS})
    assert SUITES["all"] == owned


def test_suites_run_their_checks_in_order(monkeypatch):
    # every check passes at once, so only the order is under test
    monkeypatch.setattr(
        verify, "CHECKS", tuple(row[:3] + (lambda: {"passed": True},) for row in CHECKS)
    )
    runs = {suite: [r.check_id for r in run_suite(suite)] for suite in SUITES}
    assert runs["all"] == runs["exact"] + runs["asymptotic"] + runs["montecarlo"]
    for suite, criteria in SUITES.items():
        # criterion by criterion in the suite's order, each in table order
        assert runs[suite] == [row[0] for c in criteria for row in CHECKS if row[1] == c]
