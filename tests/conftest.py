"""One run of every verify suite per test session, shared by the tests that read it."""

import time
from typing import NamedTuple

import pytest

from torsionlab.verify import CaseResult, run_suites


class VerifyRun(NamedTuple):
    cases: dict[str, CaseResult]  # by case_id, in run order
    wall_s: float


@pytest.fixture(scope="session")
def verify_run() -> VerifyRun:
    """run_suites("all") at the default seed and tolerances, timed."""
    t0 = time.perf_counter()
    results = run_suites("all")
    wall_s = time.perf_counter() - t0
    return VerifyRun({r.case_id: r for r in results}, wall_s)
