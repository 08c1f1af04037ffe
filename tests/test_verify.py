"""Every verify case at its default tolerance, read from the session's one run,
and the independent oracles behind them against closed forms."""

import math
import tracemalloc

import pytest

from torsionlab.verify import (
    SUITES,
    _circle_brute,
    _lattice_zeta_brute,
    _riemann_brute,
    run_suites,
)

APERY = 1.2020569031595942854  # zeta(3)


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_cases_pass(verify_run, suite):
    cases = [r for r in verify_run.cases.values() if r.suite == suite]
    assert cases, f"suite {suite} ran no cases"
    failing = [f"{r.case_id} (measured {r.measured:.3e}, tolerance {r.tolerance:.1e})"
               for r in cases if not r.passed]
    assert not failing, "failing cases: " + "; ".join(failing)


def test_case_ids_unique_and_all_runs_every_suite_in_order(verify_run):
    per_suite = [r for name in SUITES for r in run_suites(name)]
    ids = [r.case_id for r in per_suite]
    assert len(set(ids)) == len(ids)
    assert [(r.case_id, r.measured) for r in per_suite] == \
        [(r.case_id, r.measured) for r in verify_run.cases.values()]


def test_suite_provenance_tags_present(verify_run):
    for result in verify_run.cases.values():
        assert result.provenance
        assert ":" in result.provenance or result.provenance in (
            "negative-control",)


def test_circle_sum_meets_its_closed_form():
    # 400,000 terms of 2 sum m^-4 leave a tail of 5e-18, far below an ulp
    assert abs(_circle_brute() - math.pi ** 4 / 45.0) <= 4 * math.ulp(math.pi ** 4 / 45.0)


def test_riemann_brute_meets_its_closed_form():
    assert abs(_riemann_brute(2.0) - math.pi ** 2 / 6.0) <= 4 * math.ulp(math.pi ** 2 / 6.0)


def test_lattice_sum_lies_below_its_closed_form_by_the_box_tail():
    # sum over Z^2 minus 0 of |m|^-2s is 4 zeta(s) beta(s), and beta(3) = pi^3 / 32
    omega = (2.0 * math.pi) ** 2
    gap = APERY * math.pi ** 3 / (8.0 * omega ** 3) - _lattice_zeta_brute(2, 1.0, 3.0)
    assert 0.0 < gap < 2e-12


def test_verify_memory_stays_bounded(verify_run):
    # verify_run has filled the caches.  The verify subprocess's peak RSS is a
    # benchmark metric: the oracles must sum in bounded blocks, not in one
    # array of all their terms (a 6 MB peak)
    tracemalloc.start()
    try:
        run_suites("all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"traced peak {peak / 1e6:.2f} MB"
