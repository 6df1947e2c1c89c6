"""Acceptance gate: every criterion at full level, one line per criterion."""

import time

import pytest

from cyclohecke.acceptance import CRITERIA

_ELAPSED = {}

# stated runtime budgets (seconds) where the criteria carry one
_BUDGETS = {"1": 15, "2": 15, "3": 120, "4": 15, "5": 15, "6": 20, "7": 15,
            "8": 15, "9": 15}


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, fn):
    start = time.time()
    checks = fn("full")
    elapsed = time.time() - start
    _ELAPSED[name.split()[0]] = elapsed
    failed = [c for c in checks if not c.passed]
    verdict = "PASS" if not failed else "FAIL"
    print(f"\n[{verdict}] criterion {name}: "
          f"{len(checks) - len(failed)}/{len(checks)} checks in {elapsed:.1f}s")
    for c in failed:
        print(f"       failed: {c.name} {c.detail}")
    assert not failed, f"criterion {name}: {[c.name for c in failed]}"


def test_budgets():
    for key, limit in _BUDGETS.items():
        elapsed = _ELAPSED.get(key)
        assert elapsed is not None, f"criterion {key} did not run"
        assert elapsed < limit, f"criterion {key} took {elapsed:.1f}s"
