import math

import pytest

from torsionlab import (
    SpectralModel,
    build_cylinder,
    build_interval,
    gluing_check,
    proposition_check,
    residue_torsion,
)
from torsionlab import models
from torsionlab.errors import BadParameter, SchemaError, ShapeMismatch, UnsupportedPartition
from torsionlab.verify import _hurwitz

S_SAMPLES = (0.0, 0.75, 2.0)


def test_interval_betti_and_chi():
    rel = build_interval(1.0, "relative")
    assert rel.betti == (0, 1)
    assert rel.chi == -1
    absm = build_interval(1.0, "absolute")
    assert absm.betti == (1, 0)
    assert absm.chi == 1
    mixed = build_interval(1.0, "mixed")
    assert mixed.betti == (0, 0)
    assert mixed.chi == 0


def test_interval_relative_functions_are_dirichlet():
    rel = build_interval(1.0, "relative")
    assert abs(rel.zeta_at_zero(0) + 0.5) < 1e-14
    # closed form (R/pi)^{2s} zeta_R(2s) at s = 2
    ev = rel.zeta(0, 2.0)
    assert abs(ev.value - math.pi ** -4 * _hurwitz(4.0)) < 1e-9


def test_interval_weighted_sum_both_conventions():
    absm = build_interval(1.0, "absolute")
    assert abs(absm.weighted_zeta_sum_at_zero() - 0.5) < 1e-14
    doubled = build_interval(1.0, "absolute", rank=2)
    assert abs(doubled.weighted_zeta_sum_at_zero() - 1.0) < 1e-14


def test_interval_duality():
    rel = build_interval(1.0, "relative")
    absm = build_interval(1.0, "absolute")
    for s in S_SAMPLES:
        assert abs(absm.zeta(1, s).value - rel.zeta(0, s).value) < 1e-10
        assert abs(rel.zeta(1, s).value - absm.zeta(0, s).value) < 1e-10


def test_cylinder_structure():
    rel = build_cylinder(1.0, 2.0 * math.pi, "relative")
    assert rel.betti == (0, 1, 1)
    assert rel.chi == 0 and rel.chi_prime == 1
    absm = build_cylinder(1.0, 2.0 * math.pi, "absolute")
    assert absm.betti == (1, 1, 0)
    assert abs(rel.weighted_zeta_sum_at_zero() + 1.0) < 1e-13


def test_cylinder_degree_one_splits():
    rel = build_cylinder(0.8, 1.5, "relative")
    for s in S_SAMPLES:
        vals = [rel.zeta(k, s).value for k in range(3)]
        assert abs(vals[1] - vals[0] - vals[2]) < 1e-10


def test_cylinder_duality():
    rel = build_cylinder(1.0, 2.0 * math.pi, "relative")
    absm = build_cylinder(1.0, 2.0 * math.pi, "absolute")
    for s in S_SAMPLES:
        for k in range(3):
            assert abs(rel.zeta(k, s).value - absm.zeta(2 - k, s).value) < 1e-10


def test_proposition_sign_law():
    rel = build_interval(1.0, "relative")
    absm = build_interval(1.0, "absolute")
    report = proposition_check(rel, absm, S_SAMPLES)
    assert report.ok, report.as_dict()

    rel = build_cylinder(1.0, 2.0 * math.pi, "relative")
    absm = build_cylinder(1.0, 2.0 * math.pi, "absolute")
    report = proposition_check(rel, absm, S_SAMPLES)
    assert report.ok, report.as_dict()
    # n = 2: the weighted sums really are opposite (and nonzero)
    w_rel = rel.weighted_zeta_sum_at_zero()
    w_abs = absm.weighted_zeta_sum_at_zero()
    assert abs(w_rel + w_abs) < 1e-13
    assert abs(w_rel) > 0.5


def test_proposition_check_evaluates_each_trace_once(monkeypatch):
    calls = []
    real = models.mellin_zeta

    def counting(h, s, derivative=False):
        calls.append((id(h), s))
        return real(h, s, derivative=derivative)

    monkeypatch.setattr(models, "mellin_zeta", counting)
    # degrees 0 and 1 of each model share one trace, as the mixed interval's do
    trace = build_interval(1.0, "mixed").heat[0]
    rel, absm = (SpectralModel("shared", (trace, trace), c) for c in ("relative", "absolute"))
    shared = proposition_check(rel, absm, S_SAMPLES)
    assert shared.ok
    assert len(calls) == 2 * len(S_SAMPLES)  # one per model per s; two before
    # each degree its own copy of the trace: evaluated degree by degree, to the same bits
    rel, absm = (SpectralModel(m.name, [h._replace() for h in m.heat], m.condition)
                 for m in (rel, absm))
    calls[:] = []
    assert repr(proposition_check(rel, absm, S_SAMPLES)) == repr(shared)
    assert len(calls) == 4 * len(S_SAMPLES)


def test_proposition_check_argument_order():
    rel = build_interval(1.0, "relative")
    absm = build_interval(1.0, "absolute")
    with pytest.raises(BadParameter):
        proposition_check(absm, rel)
    cyl = build_cylinder(1.0, 1.0, "relative")
    with pytest.raises(ShapeMismatch):
        proposition_check(cyl, absm)


def test_boundary_residue_torsion_values():
    rel = build_interval(1.0, "relative")
    assert abs(residue_torsion(rel, (1.0, 1.0)).log_torsion_res
               - (-1.0)) < 1e-13
    absm = build_interval(1.0, "absolute")
    assert abs(residue_torsion(absm, (0.0, 1.0)).log_torsion_res
               - 0.5) < 1e-13
    for condition in ("relative", "absolute"):
        cyl = build_cylinder(1.0, 2.0 * math.pi, condition)
        assert abs(residue_torsion(
            cyl, (1.0, 1.0, 1.0)).log_torsion_res) < 1e-13


def test_boundary_weighted_torsion_two_routes():
    for model in (build_interval(1.0, "relative"),
                  build_interval(1.0, "absolute"),
                  build_interval(1.0, "absolute", rank=2),
                  build_cylinder(1.0, 2.0 * math.pi, "relative"),
                  build_cylinder(1.0, 2.0 * math.pi, "absolute")):
        beta = tuple(float(k) for k in range(model.dim + 1))
        report = residue_torsion(model, beta)
        assembly = report.flags["weighted_assembly"]
        closed = report.flags["weighted_closed_form"]
        assert abs(assembly - closed) < 1e-10
        assert abs(report.log_torsion_res - closed) < 1e-10
        assert abs(closed - 0.5 * model.dim * model.chi) < 1e-13


def test_flat_weights_equal_twisted_chi():
    for model in (build_interval(1.0, "relative"),
                  build_interval(1.0, "absolute", rank=2),
                  build_cylinder(1.0, 2.0 * math.pi, "absolute")):
        ones = (1.0,) * (model.dim + 1)
        report = residue_torsion(model, ones)
        assert abs(report.log_torsion_res - model.chi) < 1e-12


def test_gluing_interval():
    for outer, lhs_expected in (("absolute", 0.5), ("relative", -0.5)):
        report = gluing_check("interval", outer=outer, split=0.5)
        assert abs(report.lhs - lhs_expected) < 1e-12
        assert report.discrepancy < 1e-12
    # an off-center split must work too
    report = gluing_check("interval", outer="absolute", split=0.3)
    assert report.discrepancy < 1e-12


def test_gluing_cylinder():
    for outer in ("absolute", "relative"):
        report = gluing_check("cylinder", outer=outer, R=1.0, L=2.0 * math.pi)
        assert report.discrepancy < 1e-12
        assert report.interface_torsion == 0.0
        assert report.half_chi_interface == 0.0


def test_gluing_rejects_degenerate_partitions():
    with pytest.raises(UnsupportedPartition):
        gluing_check("interval", split=0.0)
    with pytest.raises(UnsupportedPartition):
        gluing_check("interval", split=1.0, R=1.0)
    with pytest.raises(UnsupportedPartition):
        gluing_check("moebius")
    # the pieces' mixed condition is not an outer one
    with pytest.raises(BadParameter, match="^outer condition must be 'relative' or 'absolute'$"):
        gluing_check("interval", outer="mixed")


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_gluing_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(SchemaError, match="tolerance must be a finite number >= 0"):
        gluing_check("interval", tol=tol)


def test_build_guards():
    with pytest.raises(BadParameter):
        build_interval(-1.0, "relative")
    with pytest.raises(BadParameter):
        build_interval(1.0, "periodic")
    with pytest.raises(BadParameter):
        build_cylinder(1.0, 0.0, "relative")
    with pytest.raises(BadParameter):
        build_interval(1.0, "relative", rank=3)
