"""The one spectral model type, the closed model families, torsion assembly.

A SpectralModel holds one heat trace per degree; its Betti numbers are
the traces' kernel dimensions.  Its boundary condition is None on a
closed manifold and "relative", "absolute" or "mixed" on a manifold with
boundary; boundary.py builds those.  Each closed family is a keyword-only
function whose keywords and defaults are its options; build_model(name,
**params) looks it up in MODELS and raises BadParameter naming any keyword
the family does not read.  Only the circle and the interval take a rank.
product(name, *factors) is the Kunneth product of models; boundary.py
builds the cylinder with it.

* circle(L=2 pi, theta=0, rank=1): flat circle, optionally twisted by a
  rank-2 rotation character (acyclic for theta != 0); degrees 0 and 1
  share one spectrum.
* torus(n=2, L=2 pi): flat n-torus, the product of n circles of
  length L; its degree-k trace is binom(n, k) copies of the n-fold product
  of the circle's trace.
* sphere2(): the round 2-sphere; the coexact/exact split of 1-forms pins
  the degree spectra to the scalar one (1-form trace 2 scalar - 2, so
  zeta_1 = 2 zeta_0; zeta_2 = zeta_0; Betti (1, 0, 1)).

Torsion conventions (all logs):

    residue trace   res_k := -2 (zeta_k(0) + b_k)
    residue torsion log T_res(beta) = 1/2 sum_k (-1)^(k+1) beta_k res_k
                                    = sum_k (-1)^k beta_k (zeta_k(0) + b_k)
    analytic torsion log T_zeta(beta) = 1/2 sum_k (-1)^k beta_k zeta_k'(0)

Both torsions are weights.generalized_log_torsion, of res_k and of
log det L_k = -zeta_k'(0) respectively.  Residue quantities reduce to exact
coefficient arithmetic; analytic ones go through the Mellin engine.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import (BadParameter, NotAcyclic, NumericalLimit, SchemaError, ShapeMismatch,
                     _angle, _as_int, _family, _points, _tolerance)
from .weights import _weights, euler_characteristics, generalized_log_torsion
from .zetas import (
    HeatTrace,
    ZetaEval,
    _constant_term,
    circle_heat_trace,
    combine_heat_traces,
    mellin_zeta,
    product_heat_trace,
    sphere2_scalar_heat_trace,
    zeta_at_zero,
)


class _SpectralModelFields(NamedTuple):
    name: str
    heat: tuple[HeatTrace, ...]
    condition: str | None = None


class SpectralModel(_SpectralModelFields):
    """A model geometry: one heat trace per degree.

    condition is None on a closed manifold and the boundary condition
    ("relative", "absolute" or "mixed") otherwise.  By the Hodge theorem
    the Betti numbers are the kernel dimensions of the traces; they count
    twisted harmonic forms, so chi and chi_prime already carry the
    coefficient rank.  zeta and zeta_at_zero raise SchemaError for a degree
    that is not an integer in 0..dim.

    A read-only named tuple (name, heat, condition) that compares and
    hashes by its name, its condition and the identity of its traces;
    heat is kept as a tuple of the given traces, by the constructor and by
    _replace, which makes a changed copy.
    """

    __slots__ = ()

    def __new__(cls, name: str, heat: Iterable[HeatTrace], condition: str | None = None):
        return tuple.__new__(cls, (name, tuple(heat), condition))

    @classmethod
    def _make(cls, iterable) -> "SpectralModel":
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return len(self.heat) - 1

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(h.kernel_dim for h in self.heat)

    def _trace(self, k: int) -> HeatTrace:
        if not 0 <= _as_int(k, "degree") <= self.dim:
            raise SchemaError(f"degree must lie in 0..{self.dim}")
        return self.heat[k]

    def zeta(self, k: int, s, derivative: bool = False) -> ZetaEval:
        return mellin_zeta(self._trace(k), s, derivative=derivative)

    def zeta_at_zero(self, k: int) -> float:
        return zeta_at_zero(self._trace(k))

    @property
    def chi(self) -> int:
        return euler_characteristics(self.betti, self.dim)[0]

    @property
    def chi_prime(self) -> int:
        return euler_characteristics(self.betti, self.dim)[1]

    def weighted_zeta_sum_at_zero(self) -> float:
        """sum_k (-1)^k k zeta_k(0)."""
        return sum((-1.0) ** k * k * self.zeta_at_zero(k)
                   for k in range(self.dim + 1))


# Bench contract: bench/tracer.py wraps vars(ClosedModel)["zeta"] by this
# name.  Remove with the next change to bench/.
ClosedModel = SpectralModel


def circle(*, L: float = 2.0 * math.pi, theta: float = 0.0, rank: int = 1) -> SpectralModel:
    """Flat circle of length L with the rotation character theta (rank 2) or none."""
    rank = _as_int(rank, "circle rank", BadParameter)
    # the angle rule first: every angle out of range would fail the rank rule too
    theta = _angle(theta, "theta") + 0.0  # -0.0 is the trivial character; name it theta=0
    if theta != 0.0 and rank != 2:
        raise BadParameter("a nontrivial circle character requires rank 2")
    if rank not in (1, 2):
        raise BadParameter(f"circle rank must be 1 or 2, got {rank}")
    h = circle_heat_trace(L, theta, rank)
    return SpectralModel(name=f"circle(L={L:g}, theta={theta:g}, rank={rank})", heat=(h, h))


def torus(*, n: int = 2, L: float = 2.0 * math.pi) -> SpectralModel:
    """Flat n-torus with all sides L: the product of n circles of length L."""
    n = _as_int(n, "torus dimension", BadParameter)
    if n < 1:
        raise BadParameter(f"torus dimension must be >= 1, got {n}")
    factor = circle(L=L)
    try:
        (L / math.sqrt(4.0 * math.pi)) ** n
    except OverflowError:
        raise NumericalLimit(f"L = {L:g} overflows (L/sqrt(4 pi))^{n}") from None
    return product(f"torus(n={n}, L={L:g})", *[factor] * n)


def sphere2() -> SpectralModel:
    """The round 2-sphere."""
    scalar = sphere2_scalar_heat_trace()
    # 1-forms: exact and coexact copies of the scalar spectrum off its kernel
    h1 = combine_heat_traces([(2, scalar)], constant=-2)
    return SpectralModel(name="sphere2", heat=(scalar, h1, scalar))


def product(name: str, *factors: SpectralModel) -> SpectralModel:
    """The Kunneth product of the factors, at most one with a boundary, whose
    condition it keeps.  Its degree-k trace is the sum over i_1 + ... + i_m = k
    of product_heat_trace(factors[0].heat[i_1], ...); each multiset of traces
    is multiplied once, shared between degrees, and weighted by the number of
    index tuples that give it, so the n-torus multiplies its circle once."""
    conditions = [f.condition for f in factors if f.condition is not None]
    if len(conditions) > 1:
        raise BadParameter("a product takes at most one factor with a boundary")
    traces = list({id(h): h for f in factors for h in f.heat}.values())
    position = {id(h): i for i, h in enumerate(traces)}
    degrees = [{(): 1}]  # degrees[k]: sorted trace positions -> how many index tuples
    for f in factors:
        grown = [{} for _ in range(len(degrees) + f.dim)]
        for i, h in enumerate(f.heat):
            for k, groups in enumerate(degrees, start=i):
                for key, count in groups.items():
                    key = tuple(sorted(key + (position[id(h)],)))
                    grown[k][key] = grown[k].get(key, 0) + count
        degrees = grown
    keys = dict.fromkeys(key for groups in degrees for key in groups)
    made = {key: product_heat_trace(*(traces[i] for i in key)) for key in keys}
    heat = [combine_heat_traces([(count, made[key]) for key, count in groups.items()])
            for groups in degrees]
    return SpectralModel(name=name, heat=tuple(heat), condition=(conditions or [None])[0])


MODELS = {"circle": circle, "torus": torus, "sphere2": sphere2}
_build = _family("model", MODELS)


def build_model(name: str, **params) -> SpectralModel:
    """MODELS[name](**params); BadParameter names any keyword it does not read."""
    return _build(name, params)


def residue_log_trace(model: SpectralModel, k: int) -> float:
    """res_k = -2 (zeta_k(0) + b_k) = -2 c_0, read off the t^0 heat coefficient."""
    return -2.0 * _constant_term(model._trace(k)) + 0.0  # 0.0, not -0.0


class TorsionReport(NamedTuple):
    """Per-degree zeta data and assembled torsion combinations.

    flags holds residue_torsion's four cross-check numbers (see there); it is
    None in an analytic_torsion report, and as_dict leaves every None out.
    """

    model: str
    beta: tuple[float, ...]
    betti: tuple[int, ...]
    zeta0: tuple[float, ...]
    residue_traces: tuple[float, ...]
    log_torsion_res: float | None = None
    log_torsion_zeta: float | None = None
    zeta_prime0: tuple[float, ...] | None = None
    abs_error_estimate: float = 0.0
    flags: dict | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


def residue_torsion(model: SpectralModel, beta: Sequence[float]) -> TorsionReport:
    """log T_res(beta) = sum_k (-1)^k beta_k (zeta_k(0) + b_k); exact arithmetic.

    For beta = 1 this is chi (rank times the geometric count); for beta = k
    it equals both chi' + sum_k (-1)^k k zeta_k(0) (assembly) and
    (dim/2) chi (closed form), on closed models and under every boundary
    condition alike; the report carries all four numbers under flags.
    Odd-dimensional closed models give 0 for every beta.
    """
    beta = _weights(beta, model.dim + 1)
    zeta0 = tuple(model.zeta_at_zero(k) for k in range(model.dim + 1))
    res = tuple(residue_log_trace(model, k) for k in range(model.dim + 1))
    log_t = generalized_log_torsion(res, beta)
    chi, chi_prime = euler_characteristics(model.betti, model.dim)
    # weighted_zeta_sum_at_zero's sum, in its order, of the zeta0 just read
    weighted = sum((-1.0) ** k * k * z for k, z in enumerate(zeta0))
    flags = {
        "chi": chi,
        "chi_prime": chi_prime,
        "weighted_assembly": chi_prime + weighted,
        "weighted_closed_form": 0.5 * model.dim * chi,
    }
    return TorsionReport(model=model.name, beta=beta, betti=model.betti,
                         zeta0=zeta0, residue_traces=res, log_torsion_res=log_t,
                         flags=flags)


def analytic_torsion(model: SpectralModel, beta: Sequence[float],
                     require_acyclic: bool = False) -> TorsionReport:
    """log T_zeta(beta) = 1/2 sum_k (-1)^k beta_k zeta_k'(0).

    With require_acyclic=True (the torsion-as-Reidemeister reading of
    beta = k) a nonzero Betti number raises NotAcyclic.  beta = 1 yields 0
    in every dimension.
    """
    beta = _weights(beta, model.dim + 1)
    if require_acyclic and any(model.betti):
        raise NotAcyclic(f"model {model.name} has Betti numbers {model.betti}")
    evals = [model.zeta(k, 0.0, derivative=True) for k in range(model.dim + 1)]
    zeta0 = tuple(e.value for e in evals)
    prime = tuple(e.derivative for e in evals)
    res = tuple(residue_log_trace(model, k) for k in range(model.dim + 1))
    # -zeta_k'(0) = log det L_k, the tr log L_k of the combinatorial formula
    log_t = generalized_log_torsion([-p for p in prime], beta)
    err = sum(abs(b) * e.abs_error_estimate for b, e in zip(beta, evals))
    return TorsionReport(model=model.name, beta=beta, betti=model.betti,
                         zeta0=zeta0, residue_traces=res,
                         log_torsion_zeta=log_t, zeta_prime0=prime,
                         abs_error_estimate=err)


class IdentityReport(NamedTuple):
    """Max deviations of the zeta identities at the sampled points."""

    model: str
    s_values: tuple[float, ...]
    duality: float
    alternating_sum: float
    weighted_sum: float | None
    half_dim_relation: float | None
    tol: float

    @property
    def ok(self) -> bool:
        checks = [self.duality, self.alternating_sum]
        if self.weighted_sum is not None:
            checks.append(self.weighted_sum)
        if self.half_dim_relation is not None:
            checks.append(self.half_dim_relation)
        return all(c <= self.tol for c in checks)

    def as_dict(self) -> dict:
        return {**self._asdict(), "ok": self.ok}


def identity_suite(model: SpectralModel, s_values: Iterable[float] = (0.0, 0.75, 2.0),
                   tol: float = 1e-8) -> IdentityReport:
    """Check the duality and alternating-sum identities of the degree zetas.

    At every sampled s: zeta_k(s) = zeta_{n-k}(s); for odd n the alternating
    sum vanishes; for even n both the plain and the k-weighted alternating
    sums vanish and (n/2) * sum = weighted sum.  s_values may be any iterable.
    SchemaError refuses a tol that is not a finite number >= 0, BadParameter
    an empty s_values.
    """
    _tolerance(tol)
    s_values = _points(s_values)
    n = model.dim
    duality = 0.0
    alternating = 0.0
    weighted = 0.0 if n % 2 == 0 else None
    half_relation = 0.0 if n % 2 == 0 else None
    for s in s_values:
        vals = [model.zeta(k, s).value for k in range(n + 1)]
        for k in range(n + 1):
            duality = max(duality, abs(vals[k] - vals[n - k]))
        alt = sum((-1.0) ** k * vals[k] for k in range(n + 1))
        alternating = max(alternating, abs(alt))
        if n % 2 == 0:
            wtd = sum((-1.0) ** k * k * vals[k] for k in range(n + 1))
            weighted = max(weighted, abs(wtd))
            half_relation = max(half_relation, abs(0.5 * n * alt - wtd))
    return IdentityReport(model=model.name, s_values=s_values,
                          duality=duality, alternating_sum=alternating,
                          weighted_sum=weighted, half_dim_relation=half_relation,
                          tol=tol)


def surface_residue_combination(model: SpectralModel) -> float:
    """(1/2) res_0 - res_1 + (3/2) res_2 on a closed surface.

    On a genus-g surface this evaluates to (4g - 4) * rank; it equals
    -log T_res for beta = (1, 2, 3) under the sign convention above.
    """
    if model.dim != 2:
        raise ShapeMismatch("surface combination needs a two-dimensional model")
    res = [residue_log_trace(model, k) for k in range(3)]
    return 0.5 * res[0] - res[1] + 1.5 * res[2]
