"""Every verify case at its default tolerance, read from the session's one run,
and the independent oracles behind them against closed forms."""

import ast
import math
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import torsionlab
from torsionlab import build_interval, identity_suite, proposition_check, zetas
from torsionlab.errors import BadParameter, PoleHit, SchemaError
from torsionlab.verify import (
    SUITES,
    _bernoulli_even,
    _circle_brute,
    _hurwitz,
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


def test_unknown_suite_is_a_bad_parameter():
    with pytest.raises(BadParameter, match="unknown suite 'nope'"):
        run_suites("nope")


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    relative = build_interval(1.0, "relative")
    for check in (lambda: run_suites("boundary", tol=tol),
                  lambda: identity_suite(relative, tol=tol),
                  lambda: proposition_check(relative, build_interval(1.0, "absolute"), tol=tol)):
        with pytest.raises(SchemaError, match="tolerance must be a finite number >= 0"):
            check()


def test_negative_seed_is_a_schema_error():
    with pytest.raises(SchemaError, match="^seed must be non-negative, got -1$"):
        run_suites("combinatorial", seed=-1)


def test_bernoulli_recurrence_matches_the_library_table():
    # the oracle derives B_2..B_24 from their recurrence; the library's table is typed
    # in, as (numerator, denominator) pairs in lowest terms
    assert tuple((b.numerator, b.denominator) for b in _bernoulli_even()) == zetas._BERNOULLI


def test_no_library_module_imports_verify():
    package = pathlib.Path(torsionlab.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem in ("verify", "cli"):
            continue
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not {name for name in imported if name.split(".")[-1] == "verify"}, path.name
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); import torsionlab; "
            "print('torsionlab.verify' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_the_oracle_tables_uncomputed():
    # every CLI process imports verify; only the oracles read the Bernoulli numbers
    package = pathlib.Path(torsionlab.__file__).parent
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); import torsionlab.cli; "
            "from torsionlab import verify; print(verify._bernoulli_even.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"


# --- the Hurwitz/Riemann oracle against closed forms and independent sums ----


def eta_transform_zeta(s: float, depth: int = 40) -> float:
    """zeta via the Euler-transformed alternating series; valid for s != 1."""
    eta = 0.0
    for k in range(depth):
        inner = sum(math.comb(k, j) * (-1.0) ** j * (j + 1.0) ** (-s)
                    for j in range(k + 1))
        eta += inner / 2.0 ** (k + 1)
    return eta / (1.0 - 2.0 ** (1.0 - s))


def brute_zeta(s: float, n: int = 4000) -> float:
    """Partial sum with integral, endpoint, and B_2 corrections; s > 1."""
    total = sum(k ** (-s) for k in range(1, n))
    return total + n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s) \
        + s * n ** (-s - 1.0) / 12.0


def test_riemann_values():
    assert abs(_hurwitz(2.0) - math.pi ** 2 / 6.0) < 1e-13
    assert abs(_hurwitz(2.0) - brute_zeta(2.0)) < 1e-12
    assert abs(_hurwitz(0.0) - eta_transform_zeta(0.0)) < 1e-12
    assert abs(_hurwitz(0.0) + 0.5) < 1e-14
    assert abs(_hurwitz(-1.0) - eta_transform_zeta(-1.0)) < 1e-12
    assert abs(_hurwitz(-1.0) + 1.0 / 12.0) < 1e-14
    assert abs(_hurwitz(3.0) - brute_zeta(3.0)) < 1e-13


def test_riemann_prime_zero():
    assert abs(_hurwitz(0.0, derivative=True) + 0.5 * math.log(2.0 * math.pi)) < 1e-12


def test_riemann_pole():
    with pytest.raises(PoleHit):
        _hurwitz(1.0)


def test_hurwitz_values():
    for a in (0.25, 0.5, 1.0, 1.5, 3.25):
        assert abs(_hurwitz(0.0, a) - (0.5 - a)) < 1e-13
    assert abs(_hurwitz(2.0, 1.0) - math.pi ** 2 / 6.0) < 1e-13
    # splitting the sum over even/odd shifts
    lhs = _hurwitz(2.0, 0.5) + _hurwitz(2.0, 1.0)
    assert abs(lhs - 4.0 * _hurwitz(2.0)) < 1e-12
    with pytest.raises(BadParameter):
        _hurwitz(2.0, -1.0)


def test_hurwitz_prime_zero_reflection():
    # log Gamma(1/2) = (1/2) log pi by the reflection formula
    assert abs(_hurwitz(0.0, 0.5, derivative=True) + 0.5 * math.log(2.0)) < 1e-12
    # and the lgamma closed form at a generic point
    for a in (0.3, 1.0, 2.2):
        closed = math.lgamma(a) - 0.5 * math.log(2.0 * math.pi)
        assert abs(_hurwitz(0.0, a, derivative=True) - closed) < 1e-11


def test_hurwitz_negative_argument_bernoulli():
    # zeta_H(-1, a) = -(a^2 - a + 1/6)/2
    for a in (0.5, 1.5, 2.0):
        expected = -(a * a - a + 1.0 / 6.0) / 2.0
        assert abs(_hurwitz(-1.0, a) - expected) < 1e-12
