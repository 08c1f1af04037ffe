"""Every verify case at its default tolerance, read from the session's one run."""

import pytest

from torsionlab.verify import SUITES, run_suites


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
