"""Benchmark jobs: the library calls made on each input, and their exact answers.

Every job returns named outputs; every output is checked against a value
from `exact.py` (closed forms via math and mpmath) or, where no closed form
exists, as an identity residual at the tolerance of the matching `verify`
case.  Library functions are looked up on their modules at call time, so
the spans that `tracer.py` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import exact as ref
from torsionlab import boundary, cli, complexes, hodge, models, torsion
from workloads import PASS_SECONDS

# Tolerances of the matching verify cases, relative to max(1, |exact|).
TOL_TORSION = 1e-8       # acceptance criterion 1, combinatorial/oracle-presets
TOL_ZETA = 1e-9          # closed-spectral/mellin-closed-form-values
TOL_ZETA_PRIME = 1e-8    # closed-spectral/mellin-closed-form-derivatives, at s = 0
# No verify case covers zeta'(s) at s != 0, where the library differentiates
# 1/Gamma by central differences; its relative error reaches ~1e-8 here.
TOL_ZETA_PRIME_FD = 1e-7
TOL_RESIDUE = 1e-8       # boundary/boundary-residue-values
TOL_IDENTITY = 1e-8      # zeta-identity-suite, proposition-*, gluing-identity
TOL_VARIATION = 1e-6     # variation/torus-random-paths

IDENTITY_S = (0.0, 0.75, 2.5)  # clear of every model's poles (1/2, 1, 3/2, 2)


@dataclass(frozen=True)
class Check:
    """One exact-answer check on a job output.

    closed:   |value - exact| <= tol * max(1, |exact|); counts toward accuracy_digits
    identity: |value| <= tol, a residual whose exact value is 0
    equal:    value == exact
    """

    key: str
    kind: str
    exact: object = 0.0
    tol: float = 0.0


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    checks: list[Check]


@dataclass
class Workload:
    jobs: list[Job]
    pass_seconds: float  # a run of s seconds makes round(s / pass_seconds) passes
    probes: list[Job] = field(default_factory=list)  # known defects, run untimed



def workload(name: str, specs: list[tuple], cli_runner=None, smoke: bool = False) -> Workload:
    """Pair every input with its library calls and exact answers.

    cli_runner(argv) -> (exit code, stdout) runs one CLI command; only the
    cli-cold workload uses it.
    """
    built, probes = [], []
    for kind, label, kwargs in specs:
        if kind == "cli":
            kwargs = dict(kwargs, runner=cli_runner)
        if kind == "probe":
            kwargs = dict(kwargs)
            probes.append(KINDS[kwargs.pop("kind")](label, **kwargs))
        else:
            built.append(KINDS[kind](label, **kwargs))
    return Workload(jobs=built, probes=probes,
                    pass_seconds=math.inf if smoke else PASS_SECONDS[name])


def _closed(exact) -> float:
    """An exact answer given as a number, ("circle", theta) or ("log", L)."""
    if isinstance(exact, tuple):
        kind, x = exact
        return ref.circle_log_torsion(x) if kind == "circle" else math.log(x)
    return exact


def _laplacian_job(label, instances):
    """log_reidemeister on each (cells, rep, exact) instance, one output per instance."""
    def run():
        return {f"log_torsion[{i}]": torsion.log_reidemeister(
                    complexes.build_twisted_boundary(cells, rep))
                for i, (cells, rep, _) in enumerate(instances)}
    return Job(label, run, [Check(f"log_torsion[{i}]", "closed", _closed(exact), TOL_TORSION)
                            for i, (_, _, exact) in enumerate(instances)])


def _metric_job(label, instances):
    """log_reidemeister under h_k = exp(S_k) on each (cells, rep, theta, generators)."""
    # h = exp(S) is formed here so the library only sees the generated metric
    metrics, checks = [], []
    for i, (_, _, theta, generators) in enumerate(instances):
        mats = []
        for s in generators:
            w, v = np.linalg.eigh(s)
            mats.append((v * np.exp(w)) @ v.T)
        metrics.append(mats)
        expected = ref.circle_log_torsion(theta) + ref.metric_shift(
            [math.fsum(np.diag(s)) for s in generators])
        checks.append(Check(f"log_torsion[{i}]", "closed", expected, TOL_TORSION))

    def run():
        return {f"log_torsion[{i}]": torsion.log_reidemeister(
                    complexes.build_twisted_boundary(cells, rep), hodge.ChainMetric(mats))
                for i, ((cells, rep, _, _), mats) in enumerate(zip(instances, metrics))}
    return Job(label, run, checks)


def _variation_job(label, instances):
    """variation_check (beta = k) along each (cells, rep, generators) metric path."""
    def run():
        out = {}
        for i, (cells, rep, generators) in enumerate(instances):
            cplx = complexes.build_twisted_boundary(cells, rep)
            path = torsion.exponential_metric_path(generators)
            report = torsion.variation_check(cplx, path, (0.0, 1.0, 2.0))
            out[f"discrepancy[{i}]"] = report.discrepancy
        return out
    return Job(label, run, [Check(f"discrepancy[{i}]", "identity", tol=TOL_VARIATION)
                            for i in range(len(instances))])


def _oracle_job(label, cells, rep, exact):
    def run():
        cplx = complexes.build_twisted_boundary(cells, rep)
        report = complexes.validate(cplx)
        return {"validated": report.ok, "log_torsion": torsion.determinant_oracle(cplx)}
    return Job(label, run, [Check("validated", "equal", True),
                            Check("log_torsion", "closed", _closed(exact),
                                  TOL_TORSION)])


def _build_job(label, build, betti):
    def run():
        return {"betti": tuple(build().betti)}
    return Job(label, run, [Check("betti", "equal", betti)])


def _zeta_job(label, model, k, s, derivative, family, mult):
    value, deriv = ref.zeta(family, s, derivative)
    checks = [Check("value", "closed", mult * value, TOL_ZETA)]
    if derivative:
        tol = TOL_ZETA_PRIME if s == 0 else TOL_ZETA_PRIME_FD
        checks.append(Check("derivative", "closed", mult * deriv, tol))

    def run():
        ev = model.zeta(k, s, derivative=derivative)
        return {"value": ev.value, "derivative": ev.derivative}
    return Job(label, run, checks)


def _duality_job(label, rel, ab, k, s):
    def run():
        return {"duality": rel.zeta(k, s).value - ab.zeta(rel.dim - k, s).value}
    return Job(label, run, [Check("duality", "identity", tol=TOL_IDENTITY)])


def _torsion_job(label, kind, model, beta, exact):
    def run():
        if kind == "analytic":
            return {"log_torsion": models.analytic_torsion(model, beta).log_torsion_zeta}
        return {"log_torsion": models.residue_torsion(model, beta).log_torsion_res}
    return Job(label, run, [Check("log_torsion", "closed", _closed(exact), TOL_RESIDUE)])


def _identity_suite_job(label, model):
    keys = ["duality", "alternating_sum"]
    if model.dim % 2 == 0:
        keys += ["weighted_sum", "half_dim_relation"]

    def run():
        report = models.identity_suite(model, s_values=IDENTITY_S, tol=TOL_IDENTITY)
        return {key: getattr(report, key) for key in keys}
    return Job(label, run, [Check(key, "identity", tol=TOL_IDENTITY) for key in keys])


def _proposition_job(label, rel, ab):
    keys = ("weighted_sign_law", "unweighted_relative", "unweighted_absolute", "duality")

    def run():
        report = boundary.proposition_check(rel, ab, s_values=IDENTITY_S,
                                            tol=TOL_IDENTITY)
        return {key: getattr(report, key) for key in keys}
    return Job(label, run, [Check(key, "identity", tol=TOL_IDENTITY) for key in keys])


def _gluing_job(label, geometry, outer, R, L, split, lhs):
    def run():
        report = boundary.gluing_check(geometry, R=R, L=L, split=split, outer=outer,
                                       tol=TOL_IDENTITY)
        return {"lhs": report.lhs, "discrepancy": report.discrepancy}
    return Job(label, run, [Check("lhs", "closed", lhs, TOL_RESIDUE),
                            Check("discrepancy", "identity", tol=TOL_IDENTITY)])


def _boundary_residue_job(label, model, beta, exact):
    def run():
        report = boundary.boundary_residue_torsion(model, beta)
        return {"log_torsion": report.log_torsion_res}
    return Job(label, run, [Check("log_torsion", "closed", exact, TOL_RESIDUE)])


def _cli_job(label, argv, theta, runner):
    if label == "torsion":  # twisted 2-torus: chi = 0
        checks = [Check("log_torsion", "closed", 0.0, TOL_TORSION),
                  Check("log_torsion_minor_oracle", "closed", 0.0, TOL_TORSION)]
    elif label == "zeta":
        value, deriv = ref.zeta(("sphere2",), 0.75, True)
        checks = [Check("value", "closed", value, TOL_ZETA),
                  Check("derivative", "closed", deriv, TOL_ZETA_PRIME_FD)]
    elif label == "model-torsion":
        checks = [Check("log_torsion_zeta", "closed", ref.circle_log_torsion(theta),
                        TOL_TORSION),
                  Check("log_torsion_res", "closed", 0.0, TOL_RESIDUE)]
    elif label == "gluing":  # cylinder, chi = 0
        checks = [Check("lhs", "closed", 0.0, TOL_RESIDUE),
                  Check("discrepancy", "identity", tol=TOL_IDENTITY),
                  Check("ok", "equal", True)]
    else:
        checks = [Check("n_failed", "equal", 0)]
    checks.append(Check("exit_code", "equal", 0))

    def run():
        code, out = runner(argv)
        payload = _json_payload(out)
        payload["exit_code"] = code
        return payload
    return Job(label, run, checks)


def _json_payload(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return payload if isinstance(payload, dict) else {}


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with its output captured: the warm, in-process form."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


KINDS = {"laplacian": _laplacian_job, "metric": _metric_job, "variation": _variation_job,
         "oracle": _oracle_job, "build": _build_job,
         "zeta": _zeta_job, "duality": _duality_job, "torsion": _torsion_job,
         "identity_suite": _identity_suite_job, "proposition": _proposition_job,
         "gluing": _gluing_job, "boundary_residue": _boundary_residue_job,
         "cli": _cli_job}
