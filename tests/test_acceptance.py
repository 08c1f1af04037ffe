"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion but 7 is a group of verify cases read from the session's one
run_suites("all"); its deviation is the largest `measured` in the group.
Run with `pytest tests/test_acceptance.py -v -s` for one line per criterion.
"""

import numpy as np

from torsionlab import build_preset, exponential_metric_path, variation_check
from torsionlab.verify import _difference_gaps


def _report(number: int, name: str, worst: float, tol: float, extra: str):
    status = "PASS" if worst <= tol else "FAIL"
    line = (f"ACCEPTANCE {number} {status}: {name} "
            f"(max deviation {worst:.3e}, tol {tol:.1e}) {extra}")
    print(line)
    assert worst <= tol, line


def _criterion(number: int, name: str, case_ids: tuple[str, ...], tol: float):
    def test(verify_run):
        cases = [verify_run.cases[case_id] for case_id in case_ids]
        extra = ", ".join(f"{c.case_id} {c.measured:.1e}" for c in cases)
        _report(number, name, max(c.measured for c in cases), tol, f"[{extra}]")
    return test


test_criterion_1_cheeger_mueller_desk_scale = _criterion(
    1, "combinatorial = minor-oracle = spectral torsion on the circle",
    ("closed-spectral/analytic-equals-reidemeister-circle", "combinatorial/oracle-presets"),
    1e-8)
test_criterion_2_sphere_theorem_values = _criterion(
    2, "sphere residue torsion equals 2 for both invariant weights",
    ("closed-spectral/residue-torsion-sphere",), 1e-7)
test_criterion_3_odd_dimension_vanishing = _criterion(
    3, "odd-dimensional residue traces vanish degree by degree",
    ("closed-spectral/odd-dimension-vanishing",), 1e-8)
test_criterion_4_boundary_numbers = _criterion(
    4, "interval weighted sums (1 doubled, 1/2 plain); cylinder -1",
    ("boundary/interval-weighted-sum", "boundary/interval-weighted-sum-doubled",
     "boundary/cylinder-weighted-sum"), 1e-8)
test_criterion_5_zeta_identity_suite = _criterion(
    5, "zeta identities (closed and boundary) at s in {0, 0.75, 2}",
    ("closed-spectral/zeta-identity-suite", "boundary/proposition-interval",
     "boundary/proposition-cylinder"), 1e-8)
test_criterion_6_beta_classification = _criterion(
    6, "weight classification over 1000 samples plus exact telescoping",
    ("combinatorial/beta-classification-grid", "combinatorial/telescoping-symbolic"), 1e-12)


def test_criterion_7_variation_identity():
    # no verify case covers the theta = 2.2 circle at beta = (1.5, -0.5), so this
    # criterion computes its own.  The exact sides agree to 1e-12 relative, and
    # verify's central difference of 2 log T along each path nears the exact lhs
    # at O(step^2): halving the step divides the gap by a ratio in (2.5, 8).
    # Along exp(u S), 2 log T is linear in u on the circle (square maps) and
    # at beta = k, so the first three differences are exact and only gaps
    # above the 1e-10 rounding floor have a ratio to judge
    rng = np.random.default_rng(707)
    worst = 0.0
    ratios = []
    cases = [(build_preset("circle", theta=1.0), (0.0, 1.0)),
             (build_preset("circle", theta=2.2), (1.5, -0.5)),
             (build_preset("torus2", alpha=1.0, beta=0.3), (0.0, 1.0, 2.0)),
             (build_preset("torus2", alpha=2.1, beta=0.8),
              tuple(float(rng.uniform(-2, 2)) for _ in range(3)))]
    for cplx, beta in cases:
        path = exponential_metric_path(
            [rng.standard_normal((d, d)) for d in cplx.dims])
        rep = variation_check(cplx, path, beta)
        worst = max(worst, rep.discrepancy / max(1.0, abs(rep.lhs)))
        gap, halved = _difference_gaps(cplx, path, beta, rep.lhs)
        if gap > 1e-10:
            ratios.append(gap / halved)
    _report(7, "metric-variation telescoping identity, both sides exact",
            worst, 1e-12, f"[central-difference halving ratios {['%.2f' % r for r in ratios]}]")
    assert ratios, "every case fell below the rounding floor"
    assert all(2.5 < r < 8.0 for r in ratios)


test_criterion_8_boundary_torsion_and_gluing = _criterion(
    8, "weighted boundary torsion two ways plus the gluing identity",
    ("boundary/weighted-torsion-two-routes", "boundary/gluing-identity"), 1e-8)
test_criterion_9_surface_combination = _criterion(
    9, "surface combination: 0 on the torus, -4 on the sphere",
    ("closed-spectral/surface-combination",), 1e-7)


def test_verify_run_is_desk_scale(verify_run):
    # desk scale (criteria 1 and 2): all 69 cases, not just the circle and sphere
    assert verify_run.wall_s < 1.0, f"run_suites('all') took {verify_run.wall_s:.2f}s"
