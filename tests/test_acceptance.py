"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; add -s to see the measured values.
"""

import math
import time

import numpy as np

from torsionlab import (
    analytic_torsion,
    build_cylinder,
    build_interval,
    build_model,
    build_preset,
    classify_beta,
    determinant_oracle,
    exponential_metric_path,
    gluing_check,
    hurwitz_zeta,
    identity_suite,
    log_reidemeister,
    proposition_check,
    residue_torsion,
    surface_residue_combination,
    telescoping_identity_holds,
    variation_check,
)

S_SAMPLES = (0.0, 0.75, 2.0)


def _report(number: int, name: str, worst: float, tol: float, extra: str = ""):
    status = "PASS" if worst <= tol else "FAIL"
    line = f"ACCEPTANCE {number} {status}: {name} (max deviation {worst:.3e}, tol {tol:.1e})"
    if extra:
        line += f" {extra}"
    print(line)
    assert worst <= tol, line


def test_criterion_1_cheeger_mueller_desk_scale():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.7, math.pi / 2, 2.5):
        combinatorial = log_reidemeister(build_preset("circle", theta=theta))
        oracle = determinant_oracle(build_preset("circle", theta=theta))
        closed = math.log(4.0 * math.sin(theta / 2.0) ** 2)
        model = build_model("circle", L=2.0 * math.pi, theta=theta, rank=2)
        spectral = analytic_torsion(model, (0.0, 1.0),
                                    require_acyclic=True).log_torsion_zeta
        values = (combinatorial, oracle, closed, spectral)
        worst = max(worst, max(values) - min(values))
    runtime = time.perf_counter() - t0
    _report(1, "combinatorial = minor-oracle = spectral torsion on the circle",
            worst, 1e-8, f"[runtime {runtime:.2f}s]")
    assert runtime < 1.0


def test_criterion_2_sphere_theorem_values():
    t0 = time.perf_counter()
    sphere = build_model("sphere2")
    zeta0 = sphere.zeta_at_zero(0)
    oracle = 2.0 * (hurwitz_zeta(-1.0, 1.5) + 0.125)
    worst_zeta = max(abs(zeta0 + 2.0 / 3.0), abs(zeta0 - oracle))
    worst = max(
        abs(residue_torsion(sphere, (1.0, 1.0, 1.0)).log_torsion_res - 2.0),
        abs(residue_torsion(sphere, (0.0, 1.0, 2.0)).log_torsion_res - 2.0))
    runtime = time.perf_counter() - t0
    assert worst_zeta <= 1e-8, f"zeta_0(0) deviation {worst_zeta:.3e}"
    _report(2, "sphere residue torsion equals 2 for both invariant weights",
            worst, 1e-7, f"[zeta0 dev {worst_zeta:.1e}, runtime {runtime:.2f}s]")
    assert runtime < 5.0


def test_criterion_3_odd_dimension_vanishing():
    rng = np.random.default_rng(313)
    circle = build_model("circle", L=2.0 * math.pi)
    torus3 = build_model("torus", n=3, L=1.0)
    worst = 0.0
    for model in (circle, torus3):
        for k in range(model.dim + 1):
            worst = max(worst, abs(model.zeta_at_zero(k) + model.betti[k]))
    _report(3, "odd-dimensional residue traces vanish degree by degree",
            worst, 1e-8)
    worst_t = 0.0
    for _ in range(20):
        for model in (circle, torus3):
            beta = tuple(float(rng.uniform(-3, 3)) for _ in range(model.dim + 1))
            worst_t = max(worst_t,
                          abs(residue_torsion(model, beta).log_torsion_res))
    assert worst_t <= 1e-7, f"residue torsion deviation {worst_t:.3e}"


def test_criterion_4_boundary_numbers():
    interval_plain = build_interval(1.0, "absolute")
    interval_doubled = build_interval(1.0, "absolute", rank=2)
    cylinder = build_cylinder(1.0, 2.0 * math.pi, "relative")
    worst = max(
        abs(interval_doubled.weighted_zeta_sum_at_zero() - 1.0),
        abs(interval_plain.weighted_zeta_sum_at_zero() - 0.5),
        abs(cylinder.weighted_zeta_sum_at_zero() - (-1.0)))
    _report(4, "interval weighted sums (1 doubled, 1/2 plain); cylinder -1",
            worst, 1e-8,
            f"[doubled {interval_doubled.weighted_zeta_sum_at_zero():.9g}, "
            f"plain {interval_plain.weighted_zeta_sum_at_zero():.9g}]")


def test_criterion_5_zeta_identity_suite():
    worst = 0.0
    for name, kwargs in (("circle", {"L": 2.0 * math.pi}),
                         ("torus", {"n": 2, "L": 1.0}),
                         ("sphere2", {})):
        report = identity_suite(build_model(name, **kwargs), S_SAMPLES)
        checks = [report.duality, report.alternating_sum]
        if report.weighted_sum is not None:
            checks += [report.weighted_sum, report.half_dim_relation]
        worst = max(worst, max(checks))
    interval_r = build_interval(1.0, "relative")
    interval_a = build_interval(1.0, "absolute")
    cyl_r = build_cylinder(1.0, 2.0 * math.pi, "relative")
    cyl_a = build_cylinder(1.0, 2.0 * math.pi, "absolute")
    for rel, absm in ((interval_r, interval_a), (cyl_r, cyl_a)):
        rep = proposition_check(rel, absm, S_SAMPLES)
        worst = max(worst, rep.weighted_sign_law, rep.unweighted_relative,
                    rep.unweighted_absolute, rep.duality)
    _report(5, "zeta identities (closed and boundary) at s in {0, 0.75, 2}",
            worst, 1e-8)


def test_criterion_6_beta_classification():
    rng = np.random.default_rng(606)
    worst = 0.0
    misclassified = 0
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        lam, mu = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        beta = [lam + mu * k for k in range(n + 1)]
        if trial % 2:
            beta[int(rng.integers(0, n + 1))] += float(rng.choice((-1, 1))) \
                * float(rng.uniform(1e-6, 1.0))
            if classify_beta(beta).satisfies_recurrence:
                misclassified += 1
        else:
            cls = classify_beta(beta)
            if not cls.satisfies_recurrence:
                misclassified += 1
            else:
                worst = max(worst, float(np.max(np.abs(
                    cls.reconstruct(n + 1) - np.array(beta)))))
    telescoping_ok = all(telescoping_identity_holds(n) for n in range(1, 11))
    _report(6, "weight classification over 1000 samples plus exact telescoping",
            misclassified + (0.0 if telescoping_ok else 1.0) + worst, 1e-12,
            f"[misclassified {misclassified}, recon err {worst:.2e}]")


def test_criterion_7_variation_identity():
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
        rep = variation_check(cplx, path, beta, step=1e-4)
        worst = max(worst, rep.discrepancy)
        if rep.discrepancy > 1e-10:
            ratios.append(rep.convergence_ratio)
    _report(7, "metric-variation telescoping identity at step 1e-4",
            worst, 1e-6, f"[halving ratios {['%.2f' % r for r in ratios]}]")
    assert ratios, "every case fell below the rounding floor"
    assert all(2.5 < r < 8.0 for r in ratios)


def test_criterion_8_boundary_torsion_and_gluing():
    worst = 0.0
    for model in (build_interval(1.0, "relative"),
                  build_interval(1.0, "absolute"),
                  build_cylinder(1.0, 2.0 * math.pi, "relative"),
                  build_cylinder(1.0, 2.0 * math.pi, "absolute")):
        beta = tuple(float(k) for k in range(model.dim + 1))
        report = residue_torsion(model, beta)
        worst = max(worst, abs(report.flags["weighted_assembly"]
                               - report.flags["weighted_closed_form"]))
    for geometry in ("interval", "cylinder"):
        for outer in ("absolute", "relative"):
            worst = max(worst,
                        gluing_check(geometry, outer=outer).discrepancy)
    _report(8, "weighted boundary torsion two ways plus the gluing identity",
            worst, 1e-8)


def test_criterion_9_surface_combination():
    torus = build_model("torus", n=2, L=1.0)
    sphere = build_model("sphere2")
    worst = max(abs(surface_residue_combination(torus)),
                abs(surface_residue_combination(sphere) + 4.0))
    _report(9, "surface combination: 0 on the torus, -4 on the sphere",
            worst, 1e-7,
            f"[sphere value {surface_residue_combination(sphere):.9g}]")
