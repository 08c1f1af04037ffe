import copy
import dataclasses
import functools
import inspect
import math
import pickle

import numpy as np
import pytest

from torsionlab import (
    SpectralModel,
    analytic_torsion,
    build_cylinder,
    build_interval,
    build_model,
    identity_suite,
    residue_log_trace,
    residue_torsion,
    surface_residue_combination,
)
from torsionlab import (
    boundary,
    circle_heat_trace,
    complexes,
    hodge,
    models,
    torsion,
    verify,
    weights,
    zetas,
)
from torsionlab.errors import (
    BadParameter,
    BadRepresentation,
    NotAcyclic,
    SchemaError,
    ShapeMismatch,
)
from torsionlab.weights import euler_characteristics

S_SAMPLES = (0.0, 0.75, 2.0)


def test_build_model_posts():
    circle = build_model("circle", L=2.0 * math.pi, theta=0.0, rank=1)
    assert circle.betti == (1, 1)
    assert circle.zeta_at_zero(0) == -1.0

    torus = build_model("torus", n=2, L=1.0)
    assert torus.betti == (1, 2, 1)
    assert abs(torus.zeta_at_zero(1) + 2.0) < 1e-14
    assert sum((-1) ** k * b for k, b in enumerate(torus.betti)) == 0

    sphere = build_model("sphere2")
    assert sphere.betti == (1, 0, 1)
    assert abs(sphere.zeta_at_zero(0) + 2.0 / 3.0) < 1e-14


def test_build_model_guards():
    with pytest.raises(BadParameter):
        build_model("circle", theta=1.0, rank=1)
    with pytest.raises(BadParameter):
        build_model("circle", L=-1.0)
    with pytest.raises(BadParameter):
        build_model("torus", n=0)
    with pytest.raises(BadParameter):
        build_model("klein-bottle")


@pytest.mark.parametrize("theta", [7.0, -0.5, 2.0 * math.pi, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rank", [1, 2])
def test_circle_checks_the_angle_range_before_the_rank_rule(theta, rank):
    # before, rank 1 named the rank rule for these angles and rank 2 the range
    with pytest.raises(BadParameter, match=r"^theta must lie in \[0, 2\*pi\), got "):
        models.circle(theta=theta, rank=rank)


def test_build_model_rejects_keywords_the_model_does_not_read():
    # each is refused by name, not built with the keyword ignored
    for name, params, unread in (("torus", {"theta": 1.0}, "theta"),
                                 ("sphere2", {"L": 5.0}, "L"),
                                 ("sphere2", {"L": 5.0, "n": 7}, "L, n"),
                                 ("circle", {"n": 3}, "n")):
        with pytest.raises(BadParameter, match=f"model {name} does not read {unread}$"):
            build_model(name, **params)
    # the keywords a model reads and their defaults are its builder's signature
    assert build_model("torus").name == models.torus(n=2, L=2.0 * math.pi).name
    assert build_model("circle").name == models.circle(L=2.0 * math.pi, theta=0.0).name


def test_rank_only_where_supported():
    # only the circle and the interval carry a coefficient rank
    for name in ("torus", "sphere2"):
        with pytest.raises(BadParameter, match=f"^model {name} does not read rank$"):
            build_model(name, rank=2)
    with pytest.raises(TypeError, match="rank"):
        build_cylinder(1.0, 2.0 * math.pi, "relative", rank=2)


def test_builders_check_keywords_behind_wrappers(monkeypatch):
    # a functools.wraps wrapper (as a tracer installs) hides a builder's keyword
    # defaults; build_model and preset still build and still refuse by name
    def wrapped(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            return fn(*args, **kwargs)
        return call

    for table in (models.MODELS, complexes.PRESETS):
        for name, fn in list(table.items()):
            monkeypatch.setitem(table, name, wrapped(fn))
    assert build_model("torus", n=3, L=1.0).betti == (1, 3, 3, 1)
    assert build_model("circle", theta=0.5, rank=2).betti == (0, 0)
    assert complexes.preset("torus2", alpha=0.5, beta=0.2)[1].rank == 2
    assert complexes.preset("point", rank=3)[1].rank == 3
    with pytest.raises(BadParameter, match="^model torus does not read rank, theta$"):
        build_model("torus", rank=2, theta=1.0)
    with pytest.raises(BadParameter, match="^preset circle does not read alpha$"):
        complexes.preset("circle", alpha=1.0)


def test_residue_traces():
    circle = build_model("circle", L=2.0 * math.pi)
    assert abs(residue_log_trace(circle, 0)) < 1e-14

    torus = build_model("torus", n=2, L=1.0)
    assert abs(residue_log_trace(torus, 1)) < 1e-14

    sphere = build_model("sphere2")
    assert abs(residue_log_trace(sphere, 0) + 2.0 / 3.0) < 1e-14
    assert abs(residue_log_trace(sphere, 1) - 8.0 / 3.0) < 1e-14


def test_residue_torsion_sphere_theorem_values():
    sphere = build_model("sphere2")
    assert abs(residue_torsion(sphere, (1.0, 1.0, 1.0)).log_torsion_res - 2.0) < 1e-12
    assert abs(residue_torsion(sphere, (0.0, 1.0, 2.0)).log_torsion_res - 2.0) < 1e-12


def test_residue_torsion_torus_vanishes():
    torus = build_model("torus", n=2, L=1.0)
    assert abs(residue_torsion(torus, (1.0, 1.0, 1.0)).log_torsion_res) < 1e-12
    assert abs(residue_torsion(torus, (0.0, 1.0, 2.0)).log_torsion_res) < 1e-12


def test_residue_torsion_odd_dimensions_vanish():
    rng = np.random.default_rng(6)
    circle = build_model("circle", L=2.0 * math.pi)
    torus3 = build_model("torus", n=3, L=1.0)
    for model in (circle, torus3):
        for k in range(model.dim + 1):
            assert abs(model.zeta_at_zero(k) + model.betti[k]) < 1e-12
        for _ in range(20):
            beta = tuple(float(rng.uniform(-3, 3)) for _ in range(model.dim + 1))
            assert abs(residue_torsion(model, beta).log_torsion_res) < 1e-10


def test_residue_torsion_shape_check():
    sphere = build_model("sphere2")
    with pytest.raises(ShapeMismatch, match="^got 3 traces but 2 weights$"):
        residue_torsion(sphere, (1.0, 1.0))
    with pytest.raises(ShapeMismatch, match="^got 3 traces but 4 weights$"):
        analytic_torsion(sphere, (1.0, 1.0, 1.0, 1.0))


def test_degree_out_of_range_refused():
    # before, degree -1 read the top degree and degree 3 raised a bare IndexError
    sphere = build_model("sphere2")
    for k in (-1, 3):
        for call in (lambda: sphere.zeta(k, 2.0), lambda: sphere.zeta_at_zero(k),
                     lambda: residue_log_trace(sphere, k)):
            with pytest.raises(SchemaError, match=r"^degree must lie in 0\.\.2$"):
                call()
    # both ends of the range are read: zeta_1 = 2 zeta_0, zeta_2 = zeta_0
    assert sphere.zeta(2, 2.0).value == sphere.zeta(0, 2.0).value
    assert sphere.zeta_at_zero(2) == sphere.zeta_at_zero(0) == 0.5 * sphere.zeta_at_zero(1)


def test_zeta_refuses_a_degree_or_s_that_is_not_a_number():
    # before, zeta("a", 1.0) and zeta(0, None) raised a raw TypeError, zeta(0, "x")
    # a raw ValueError, and zeta(True, 1.0) read degree 1
    circle = build_model("circle")
    for k in ("a", 1.0, True, None):
        for call in (lambda: circle.zeta(k, 1.0), lambda: circle.zeta_at_zero(k)):
            with pytest.raises(SchemaError, match=f"^degree must be an integer, got {k!r}$"):
                call()
    for s in ("x", None, "2"):
        with pytest.raises(BadParameter, match=f"^s must be a number, got {s!r}$"):
            circle.zeta(0, s)
    assert circle.zeta(np.int64(1), np.float64(2.0)) == circle.zeta(1, 2.0)


def test_zeta_refuses_a_bool_s():
    # before, zeta(0, True) returned zeta(1)
    circle = build_model("circle")
    for s in (True, False):
        with pytest.raises(BadParameter, match=f"^s must be a number, got {s!r}$"):
            circle.zeta(0, s)


def test_torsions_refuse_weights_that_are_not_finite():
    # before, each returned nan or +-inf
    twisted, circle = build_model("circle", theta=1.0, rank=2), build_model("circle")
    for call, shown in ((lambda: residue_torsion(twisted, (0.0, math.nan)), "beta_1 must be finite, got nan"),
                        (lambda: analytic_torsion(circle, (0.0, math.inf)), "beta_1 must be finite, got inf"),
                        (lambda: analytic_torsion(twisted, (-math.inf, 1.0)), "beta_0 must be finite, got -inf"),
                        (lambda: residue_torsion(build_interval(1.0, "relative"), (math.inf, 0.0)),
                         "beta_0 must be finite, got inf")):
        with pytest.raises(BadParameter, match=f"^weight {shown}$"):
            call()


def test_identity_checks_refuse_an_empty_sample():
    # before, identity_suite returned ok and proposition_check deviations of 0.0
    # without evaluating a single zeta
    rel, absm = build_interval(1.0, "relative"), build_interval(1.0, "absolute")
    for call in (lambda s_values: identity_suite(build_model("sphere2"), s_values=s_values),
                 lambda s_values: boundary.proposition_check(rel, absm, s_values=s_values)):
        with pytest.raises(BadParameter, match="^s_values is empty"):
            call(())
        # a generator is read once into the points the report lists
        report = call(s for s in (0.75, 2.0))
        assert report.s_values == (0.75, 2.0) and report.ok


def test_analytic_torsion_requires_acyclic_in_reidemeister_mode():
    torus = build_model("torus", n=2, L=1.0)
    with pytest.raises(NotAcyclic):
        analytic_torsion(torus, (0.0, 1.0, 2.0), require_acyclic=True)
    # without the flag the combination is still defined
    report = analytic_torsion(torus, (0.0, 1.0, 2.0))
    assert math.isfinite(report.log_torsion_zeta)


def test_torus_weighted_zeta_sum_vanishes():
    torus = build_model("torus", n=2, L=1.0)
    for s in S_SAMPLES:
        vals = [torus.zeta(k, s).value for k in range(3)]
        assert abs(sum((-1.0) ** k * k * vals[k] for k in range(3))) < 1e-10


def test_surface_combination():
    torus = build_model("torus", n=2, L=1.0)
    assert abs(surface_residue_combination(torus)) < 1e-12
    sphere = build_model("sphere2")
    combo = surface_residue_combination(sphere)
    assert abs(combo + 4.0) < 1e-12
    # the displayed combination is minus the weighted torsion at (1, 2, 3)
    assert abs(combo + residue_torsion(sphere, (1.0, 2.0, 3.0)).log_torsion_res) < 1e-12
    with pytest.raises(ShapeMismatch):
        surface_residue_combination(build_model("circle"))


@pytest.mark.parametrize("build, error", [
    (lambda: models.torus(n=2.5), BadParameter),
    (lambda: models.torus(n=True), BadParameter),
    (lambda: models.circle(rank=True), BadParameter),
    (lambda: models.circle(rank=2.0), BadParameter),
    (lambda: build_interval(1.0, "absolute", rank=True), BadParameter),
    (lambda: complexes.preset("point", rank=2.5), BadRepresentation),
    (lambda: complexes.preset("interval", rank=1.5), BadRepresentation),
], ids=["torus-n-2.5", "torus-n-True", "circle-rank-True", "circle-rank-2.0",
        "interval-rank-True", "point-rank-2.5", "interval-preset-rank-1.5"])
def test_integer_options_refuse_non_integers(build, error):
    with pytest.raises(error, match="must be an integer, got"):
        build()


def test_integer_options_take_numpy_integers():
    assert models.torus(n=np.int64(2)).name == models.torus(n=2).name
    assert models.circle(theta=1.0, rank=np.int32(2)).name == models.circle(theta=1.0, rank=2).name
    assert type(complexes.preset("point", rank=np.int64(2))[1].rank) is int


@pytest.mark.parametrize("theta", [0.7, 2.5])
@pytest.mark.parametrize("build", [
    lambda: models.torus(n=1),
    lambda: models.torus(n=2),
    lambda: models.sphere2(),
    lambda: build_interval(1.1, "relative"),
    lambda: build_interval(1.1, "absolute"),
    lambda: build_interval(1.1, "mixed"),
], ids=["torus1", "torus2", "sphere2", "interval-relative", "interval-absolute",
        "interval-mixed"])
def test_product_with_a_twisted_circle_multiplies_torsion_by_chi(build, theta):
    # log T(D x C) = chi(D) log T(C) for an acyclic circle C (Milnor; Ray and
    # Singer), and log T(C) = log(4 sin^2(theta/2)) at beta = k
    factor = build()
    model = models.product(f"{factor.name} x circle", factor,
                           models.circle(theta=theta, rank=2))
    assert model.dim == factor.dim + 1
    assert model.betti == (0,) * (model.dim + 1)
    assert model.condition == factor.condition
    beta = range(model.dim + 1)
    expected = factor.chi * math.log(4.0 * math.sin(theta / 2.0) ** 2)
    assert abs(analytic_torsion(model, beta).log_torsion_zeta - expected) < 1e-8
    assert residue_torsion(model, beta).log_torsion_res == 0.0


def test_product_forms_each_equal_product_once():
    # the degree-2 trace of circle^4 is six copies of one product, which
    # evaluates its circle once per call, not once per copy or per factor
    h = circle_heat_trace(6.0)
    calls = []
    counted = h._replace(remainder=lambda t: calls.append("remainder") or h.remainder(t),
                         tail=lambda t: calls.append("tail") or h.tail(t))
    torus = models.product("4-torus", *[SpectralModel(name="circle", heat=(counted, counted))] * 4)
    t = np.array([0.3, 0.7, 1.0])
    torus.heat[2].remainder(t)
    torus.heat[2].tail(t + 1.0)
    assert calls == ["remainder", "tail"]
    assert np.allclose(torus.heat[2].full(t), 6.0 * h.full(t) ** 4, rtol=1e-14, atol=0.0)
    assert torus.betti == (1, 4, 6, 4, 1)


def test_product_takes_one_boundary_factor():
    interval = build_interval(1.0, "relative")
    assert models.product("one", interval).heat == interval.heat
    with pytest.raises(BadParameter):
        models.product("corners", interval, build_interval(1.0, "absolute"))


def test_torsion_report_serialization():
    sphere = build_model("sphere2")
    report = analytic_torsion(sphere, (0.0, 1.0, 2.0))
    data = report.as_dict()
    assert data["model"] == "sphere2"
    assert len(data["zeta_prime0"]) == 3
    assert "log_torsion_zeta" in data


def test_report_key_sets():
    # the JSON the CLI prints is these dicts; pin their keys
    torsion_keys = {"model", "beta", "betti", "zeta0", "residue_traces",
                    "abs_error_estimate"}
    sphere = build_model("sphere2")
    residue = residue_torsion(sphere, (0.0, 1.0, 2.0))
    analytic = analytic_torsion(sphere, (0.0, 1.0, 2.0))
    both = residue._replace(log_torsion_zeta=analytic.log_torsion_zeta,
                            zeta_prime0=analytic.zeta_prime0)
    assert set(residue.as_dict()) == torsion_keys | {"log_torsion_res", "flags"}
    assert set(analytic.as_dict()) == torsion_keys | {"log_torsion_zeta", "zeta_prime0"}
    assert set(both.as_dict()) == torsion_keys | {"log_torsion_res", "log_torsion_zeta",
                                                  "zeta_prime0", "flags"}
    identity_keys = {"model", "s_values", "duality", "alternating_sum", "weighted_sum",
                     "half_dim_relation", "tol", "ok"}
    odd = identity_suite(build_model("circle")).as_dict()
    even = identity_suite(sphere).as_dict()
    assert set(odd) == set(even) == identity_keys
    assert odd["weighted_sum"] is None and odd["half_dim_relation"] is None
    assert even["weighted_sum"] is not None
    prop = boundary.proposition_check(build_interval(1.0, "relative"),
                                      build_interval(1.0, "absolute"))
    assert set(prop.as_dict()) == {"geometry", "s_values", "weighted_sign_law",
                                   "unweighted_relative", "unweighted_absolute",
                                   "duality", "tol", "ok"}
    glued = boundary.gluing_check("interval").as_dict()
    assert set(glued) == {"geometry", "outer_condition", "split", "lhs", "piece1",
                          "piece2", "interface_torsion", "half_chi_interface", "rhs",
                          "discrepancy", "tol", "ok"}
    assert glued["ok"] and glued["discrepancy"] == abs(glued["lhs"] - glued["rhs"])
    case = verify.CaseResult("id", "suite", "what", "closed-form", 1e-9, 1e-8)
    assert case.as_dict() == {"case_id": "id", "suite": "suite", "description": "what",
                              "provenance": "closed-form", "measured": 1e-9,
                              "tolerance": 1e-8, "expected": 0.0, "passed": True,
                              "detail": ""}


_RECORDS = [complexes.ValidationReport, weights.BetaClassification,
            torsion.VariationReport, zetas.ZetaEval, models.TorsionReport,
            models.IdentityReport, boundary.PropositionReport, boundary.GluingReport,
            verify.CaseResult]


@pytest.mark.parametrize("record", _RECORDS, ids=[r.__name__ for r in _RECORDS])
def test_report_records_are_read_only_named_tuples(record):
    # a dataclass would load dataclasses and compile its methods at every import
    # of the library (test_import_loads_no_dataclasses_or_fractions)
    assert not dataclasses.is_dataclass(record)
    fields = list(inspect.signature(record).parameters)
    instance = record(**dict.fromkeys(fields))
    with pytest.raises(AttributeError):
        setattr(instance, fields[0], 0)


def _library_instances() -> dict:
    """One instance of each read-only library class with public fields, by class
    name (ChainMetric, whose one field is private, is tested in test_hodge)."""
    cells, rho = complexes.preset("circle", theta=1.0)
    cx = complexes.build_twisted_boundary(cells, rho)
    model = build_model("circle")
    return {"Representation": rho, "CellStructure": cells, "TwistedComplex": cx,
            "Factorization": hodge.factorize(cx), "SpectralModel": model,
            "HeatTrace": model.heat[0]}


@pytest.mark.parametrize("name", list(_library_instances()))
def test_library_classes_are_read_only(name):
    # plain classes and one named tuple: nothing is generated at import
    instance = _library_instances()[name]
    assert type(instance).__name__ == name and not dataclasses.is_dataclass(instance)
    field = next(iter(inspect.signature(type(instance)).parameters))
    value = getattr(instance, field)
    for change in (lambda: setattr(instance, field, 0), lambda: delattr(instance, field),
                   lambda: setattr(instance, "extra", 0)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(instance, field) is value and not hasattr(instance, "extra")
    # repr names the public fields, as a dataclass's does; a copy keeps them
    assert repr(instance).startswith(f"{name}({field}=")
    assert repr(copy.copy(instance)) == repr(instance)


def test_structures_and_models_compare_by_value_traces_by_identity():
    made = _library_instances()
    cells, model, trace = made["CellStructure"], made["SpectralModel"], made["HeatTrace"]
    copies = [complexes.CellStructure(dimension=cells.dimension,
                                      cells_per_degree=list(cells.cells_per_degree),
                                      incidences=list(cells.incidences)),
              SpectralModel(model.name, list(model.heat), model.condition)]
    # the circle's loop with the trivial word in place of its generator
    changed = [complexes.CellStructure(dimension=1, cells_per_degree=(1, 1),
                                       incidences=(((),), (((0, 1, ()), (0, -1, ())),))),
               model._replace(name="another circle")]
    copies[0] = pickle.loads(pickle.dumps(copies[0]))
    for instance, same, other in zip((cells, model), copies, changed):
        assert same is not instance and same == instance and hash(same) == hash(instance)
        assert other != instance
    # a trace's copy, with every field the same, is another trace, and a model
    # of copied traces another model
    assert trace._replace() != trace and hash(trace) == object.__hash__(trace)
    assert model._replace(heat=tuple(h._replace() for h in model.heat)) != model


def test_representations_complexes_and_factorizations_compare_by_identity():
    made = _library_instances()
    rho, cx, fac = made["Representation"], made["TwistedComplex"], made["Factorization"]
    again = [complexes.Representation(rho.rank, rho.generator_images),
             complexes.TwistedComplex(cx.rank, cx.cells_per_degree, [cx.boundary(1)]),
             hodge.factorize(cx)]
    for instance, twin in zip((rho, cx, fac), again):
        assert instance == instance and twin != instance
        assert hash(instance) == object.__hash__(instance)
    unpickled = pickle.loads(pickle.dumps(rho))
    assert unpickled != rho and np.array_equal(*unpickled.generator_images, *rho.generator_images)


def test_a_model_keeps_a_tuple_of_the_callers_traces():
    heat = list(build_model("circle").heat)
    model = SpectralModel(name="circle", heat=heat)
    key = hash(model)
    heat.append(heat[0])
    assert model.heat == tuple(heat[:2]) and model.dim == 1 and hash(model) == key
    assert model._replace(condition="relative").heat == model.heat


@pytest.mark.parametrize("build", [
    lambda: build_model("circle"),
    lambda: build_model("torus", n=2, L=1.0),
    lambda: build_model("sphere2"),
    lambda: build_interval(1.0, "absolute"),
    lambda: build_cylinder(1.0, 2.0 * math.pi, "relative"),
], ids=["circle", "torus", "sphere2", "interval", "cylinder"])
def test_one_spectral_model_type(build):
    model = build()
    assert type(model) is SpectralModel
    assert (model.chi, model.chi_prime) == euler_characteristics(model.betti, model.dim)
    report = residue_torsion(model, range(model.dim + 1))
    for key in ("weighted_assembly", "weighted_closed_form"):
        assert abs(report.flags[key] - report.log_torsion_res) < 1e-12
    assert models.ClosedModel is boundary.BoundaryModel is SpectralModel
    assert "zeta" in vars(SpectralModel)
