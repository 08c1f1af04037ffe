"""Spectral zeta functions via heat-trace Mellin continuation.

A model spectrum is wrapped as a HeatTrace: exact small-time power terms
c_p t^{-p} (half-integer p), a small remainder so that

    Tr e^{-tL} = sum_p c_p t^{-p} + remainder(t)        (0 < t <= 1),

a large-time tail evaluator summing exp(-t*lambda) over the nonzero
spectrum, and the kernel dimension b.  The zeta function with the
convention  zeta(s) = sum_{lambda > 0} lambda^{-s}  is continued by
splitting its Mellin integral at t = 1:

    Gamma(s) zeta(s) = sum_p c_p/(s-p) - b/s
                       + int_0^1 t^{s-1} remainder(t) dt
                       + int_1^oo t^{s-1} tail(t) dt,

where the first group is exact and the integrals are entire in s.  At
s = -n (n = 0, 1, ...) the simple zero of 1/Gamma meets the simple pole
R/(s + n), R = c_{-n} - b [n = 0], of the right-hand side f, so

    zeta(-n) = (-1)^n n! R,    zeta'(-n) = (-1)^n n! (f_reg - psi(n+1) R)

with f_reg the rest of f; zeta(0) = c_0 - b is the residue torsion's part.

Every flat model trace is an image sum of one primitive, circle_heat_trace
(length L, rotation character theta), by the exact theta identity

    sum_m e^{-t ((2 pi m + theta)/L)^2}
        = L/sqrt(4 pi t) (1 + 2 sum_{j>=1} cos(j theta) e^{-j^2 L^2/(4t)}).

One mode formula serves every theta in [0, 2 pi), so a sum over characters
takes one code path.  boundary.py builds the interval factors from it, and
combine_heat_traces and product_heat_trace form sums and products of any
number of traces (models.product builds the torus and the cylinder from
circles with it); only the 2-sphere uses a truncated asymptotic expansion,
whose remainder is 0 where it would be rounding noise (see
sphere2_scalar_heat_trace).  This module knows no boundary condition.

All functions are deterministic (the memo below changes no result); numpy
is their only dependency.
A trace's remainder and tail take an array of t and return an array of the
same shape.  Every Mellin integral is one nested tanh-sinh rule (quad) that
evaluates the trace on arrays of nodes, once per node for all the weights of
its split: levels 0-4 in one call, then one call per further level.  The
nodes depend on the trace alone, never on s, so mellin_zeta samples each
part (remainder, tail) once per group of levels and keeps, in the trace's
private memo HeatTrace._samples and for the trace's lifetime, what quad
needs of those samples: the positions of the nonzero ones, t there and
trace(t) dt/du there.  Every later zeta of the trace, at any s, reads them,
and forms only its weights at those t.  Each integral aims
at QUAD_EPSABS absolute error, or at the bound the estimate already counts
for the sphere's cut and rounding where that is larger, and at QUAD_EPSREL
relative error; an integral that cannot get there raises QuadratureFailure
instead of returning its estimate.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from functools import lru_cache, partial, reduce
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .errors import (BadParameter, NumericalLimit, PoleHit, QuadratureFailure, ShapeMismatch,
                     _angle, _as_int, _as_real, _ReadOnly)

if TYPE_CHECKING:  # annotations only: fractions loads where the exact tables are used
    from fractions import Fraction

EULER_GAMMA = 0.5772156649015328606065120900824024

# Bernoulli numbers B_2, B_4, ..., B_24 as (numerator, denominator) pairs in
# lowest terms: digamma reads n / d, sphere2_power_coefficients Fraction(n, d).
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
)


def digamma(x: float) -> float:
    """Real digamma by reflection, upward recurrence, and the asymptotic series."""
    if x <= 0.0 and x == math.floor(x):
        raise BadParameter(f"digamma pole at nonpositive integer {x}")
    result = 0.0
    if x < 0.5:
        # psi(x) = psi(1-x) - pi cot(pi x)
        result -= math.pi / math.tan(math.pi * x)
        x = 1.0 - x
    while x < 12.0:
        result -= 1.0 / x
        x += 1.0
    result += math.log(x) - 0.5 / x
    x2 = 1.0 / (x * x)
    power = x2
    for j, (n, d) in enumerate(_BERNOULLI[:7], start=1):
        result -= n / d / (2 * j) * power  # n / d rounds once, as float(Fraction(n, d))
        power *= x2
    return result


_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
)


def _gamma_complex(z: complex) -> complex:
    """Gamma(z) by Lanczos' series, for Re z >= 1/2 (rgamma reflects the rest)."""
    z -= 1.0
    x = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def rgamma(s: float | complex):
    """1/Gamma(s), entire: exact zeros at nonpositive integers."""
    if isinstance(s, complex) and s.imag != 0.0:
        if s.real >= 0.5:
            return 1.0 / _gamma_complex(s)
        return cmath.sin(math.pi * s) * _gamma_complex(1.0 - s) / math.pi
    s = float(s.real) if isinstance(s, complex) else float(s)
    if s >= 0.5:
        return 1.0 / math.gamma(s)
    if s == math.floor(s):
        return 0.0  # exact zero at a nonpositive integer
    return math.sin(math.pi * s) * math.gamma(1.0 - s) / math.pi


def _rgamma_prime(s: float) -> float:
    """d/ds 1/Gamma(s) = -psi(s)/Gamma(s); at s = -n it is (-1)^n n! (a simple zero)."""
    if s <= 0.0 and s == math.floor(s):
        n = int(-s)
        return (-1.0) ** n * math.factorial(n)
    return -digamma(s) * rgamma(s)


# --- heat traces ------------------------------------------------------------


class HeatTrace(_ReadOnly):
    """Exact small-time data plus spectral evaluators for one operator.

    terms are (p, c_p) pairs for sum_p c_p t^{-p}, p descending; remainder(t)
    is the difference full - power on (0, 1], vanishing as t -> 0; tail(t)
    sums exp(-t lambda) over the nonzero spectrum for t >= 1.  Both take a
    float array of t (or one float) and return an array of its shape, as do
    power and full.  lambda_min is the smallest positive eigenvalue (used to
    truncate upper integrals).

    Terms with p < 0 (positive powers of t) mark a truncated asymptotic
    expansion, whose remainder is 0 below the cut _expansion_cut(terms);
    mellin_zeta bounds what the cut drops, and the rounding above it, from
    the terms alone.  Theta-exact traces have no such terms.

    The fields are read-only, and traces compare by identity;
    _replace(**changes) is a copy with the given fields changed, which
    starts an empty memo.
    """

    __slots__ = ("terms", "remainder", "tail", "kernel_dim", "lambda_min", "_samples")
    terms: tuple[tuple[float, float], ...]
    remainder: Callable[[np.ndarray], np.ndarray]
    tail: Callable[[np.ndarray], np.ndarray]
    kernel_dim: int
    lambda_min: float
    # mellin_zeta's memo, for the trace's lifetime (every trace, a _replace
    # copy too, starts an empty one): (part, lo, hi, index into _TS_GROUPS)
    # -> _node_arrays of part on that group's nodes over [lo, hi], three
    # read-only arrays: the positions where part is nonzero, t there and
    # part(t) dt/du there.  The nodes depend on the trace alone (lo, hi are
    # cut and 1, or 1 and the tail's upper limit), so it holds at most
    # 2 len(_TS_GROUPS) entries, of at most 24 bytes a node (2049 nodes a
    # part).  A series cutoff chosen per call (ROADMAP item 4) would make
    # the samples depend on the call: the key must then name that cutoff.
    _samples: dict

    def __init__(self, terms: tuple[tuple[float, float], ...],
                 remainder: Callable[[np.ndarray], np.ndarray],
                 tail: Callable[[np.ndarray], np.ndarray], kernel_dim: int, lambda_min: float):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "remainder", remainder)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "kernel_dim", kernel_dim)
        object.__setattr__(self, "lambda_min", lambda_min)
        object.__setattr__(self, "_samples", {})

    def _replace(self, **changes) -> "HeatTrace":
        fields = {name: getattr(self, name) for name in self.__slots__ if name != "_samples"}
        return HeatTrace(**(fields | changes))

    def power(self, t):
        t = np.asarray(t, dtype=float)
        return sum(c * t ** (-p) for p, c in self.terms)

    def full(self, t):
        return self.power(t) + self.remainder(t)

    @property
    def positive_powers(self) -> tuple[float, ...]:
        return tuple(p for p, c in self.terms if p > 0.0 and c != 0.0)

    def consistency_residual(self) -> float:
        """|(b + tail(t)) - (power(t) + remainder(t))| at the split point t = 1."""
        return float(abs((self.kernel_dim + self.tail(1.0)) - self.full(1.0)))


def _constant_term(h: HeatTrace) -> float:
    """c_0, the t^0 coefficient of the small-time expansion."""
    return sum((c for p, c in h.terms if p == 0.0), 0.0)


def zeta_at_zero(h: HeatTrace) -> float:
    """zeta(0) = c_0 - dim ker, by coefficient arithmetic alone."""
    return _constant_term(h) - h.kernel_dim


def _expansion_cut(terms) -> float:
    """Where the last term c_N t^N (N > 0) drops below the rounding of the
    leading term; 0 without such a term."""
    if not terms or terms[-1][0] >= 0.0:
        return 0.0
    (p_top, c_top), (p_last, c_last) = terms[0], terms[-1]
    return (math.ulp(1.0) * abs(c_top / c_last)) ** (1.0 / (p_top - p_last))


def _merge_terms(pairs) -> tuple[tuple[float, float], ...]:
    acc: dict[int, float] = {}
    for p, c in pairs:
        key = round(2.0 * p)
        acc[key] = acc.get(key, 0.0) + c
    return tuple(sorted(((k / 2.0, c) for k, c in acc.items() if c != 0.0),
                        key=lambda pc: -pc[0]))


def combine_heat_traces(parts: Sequence[tuple[float, HeatTrace]],
                        constant: float = 0) -> HeatTrace:
    """Heat trace of sum_i c_i h_i plus `constant` zero modes.

    parts holds (c_i, h_i) pairs, at least one; a negative constant removes
    kernel.  The kernel dimension sum_i c_i b_i + constant must come out a
    non-negative integer.  The constant enters the t^0 coefficient and the
    kernel only, never the remainder or the tail.  One part of weight 1 and
    no constant is that part itself.
    """
    if not parts:
        raise BadParameter("combine at least one heat trace")
    if not constant and [c for c, _ in parts] == [1]:
        return parts[0][1]
    kernel = sum(c * h.kernel_dim for c, h in parts) + constant
    if kernel < 0 or not float(kernel).is_integer():
        raise BadParameter(f"combined kernel dimension {kernel} is not a "
                           f"non-negative integer")
    parts = tuple(parts)

    def remainder(t):
        return sum(c * h.remainder(t) for c, h in parts)

    def tail(t):
        return sum(c * h.tail(t) for c, h in parts)

    terms = [(p, c * cp) for c, h in parts for p, cp in h.terms]
    if constant:
        terms.append((0.0, constant))
    return HeatTrace(
        terms=_merge_terms(terms),
        remainder=remainder,
        tail=tail,
        kernel_dim=int(kernel),
        lambda_min=min(h.lambda_min for _, h in parts),
    )


def product_heat_trace(*factors: HeatTrace) -> HeatTrace:
    """Heat trace of the product spectrum {lam_1 + ... + lam_m}: traces multiply.

    Factors are theta-exact traces (circles, their sums and products) or the
    2-sphere's expansion, whose positive powers of t the Cauchy product of
    the power terms folds into the remainder: that makes it O(t^(1/2)), so
    the product's zeta holds for Re s > -1/2 only (quad refuses from about
    s = -1/4 down).  Each distinct factor is evaluated once per call, and
    with P and B the products of the powers and kernels so far, remainder
    and tail grow as R <- R (p + r) + P r and T <- T (b + y) + B y: no 1 is
    subtracted from a number near 1.  P is taken as 0 where every remainder
    is 0, as there, near t = 0, it can overflow.
    """
    if not factors:
        raise BadParameter("multiply at least one heat trace")
    if len(factors) == 1:
        return factors[0]
    index = {}
    slots = [index.setdefault(id(h), len(index)) for h in factors]
    distinct = list({id(h): h for h in factors}.values())
    terms = factors[0].terms
    for h in factors[1:]:
        terms = _merge_terms((p + q, c * d) for p, c in terms for q, d in h.terms)
    dropped = [(p, c) for p, c in terms if p < 0.0]

    def remainder(t):
        t = np.asarray(t, dtype=float)
        rems = [h.remainder(t) for h in distinct]
        live = reduce(np.logical_or, rems)
        powers = [np.where(live, h.power(t), 0.0) for h in distinct]
        total, volume = rems[0], powers[0]
        for i in slots[1:]:
            total, volume = total * (powers[i] + rems[i]) + volume * rems[i], volume * powers[i]
        return sum((c * t ** (-p) for p, c in dropped), total)

    def tail(t):
        tails = [h.tail(t) for h in distinct]
        total, kernel = tails[0], distinct[0].kernel_dim
        for i in slots[1:]:
            b = distinct[i].kernel_dim
            total, kernel = total * (b + tails[i]) + kernel * tails[i], kernel * b
        return total

    # the lowest positive sum: the kernel-free factors' lowest eigenvalues,
    # or, where every factor has a kernel, the lowest of one factor
    floor = sum(h.lambda_min for h in factors if h.kernel_dim == 0)
    return HeatTrace(terms=tuple((p, c) for p, c in terms if p >= 0.0), remainder=remainder,
                     tail=tail, kernel_dim=math.prod(h.kernel_dim for h in factors),
                     lambda_min=floor or min(h.lambda_min for h in factors))


_EXP_CUTOFF = 50.0  # exp(-50) ~ 2e-22, below double-precision relevance
_SERIES_BLOCK = 1 << 14  # terms a series forms at once: 128 KiB an array
_SERIES_TERMS = 1 << 20  # the most terms one circle series may need at t = 1
# Below this lowest eigenvalue a tail integral's upper limit _EXP_CUTOFF/lambda_min overflows.
_LAMBDA_FLOOR = _EXP_CUTOFF / sys.float_info.max


def _exp_series(x1, exponent, first: int = 1, weight=None) -> np.ndarray:
    """sum_{j>=first} w_j exp(-x_j) for each element of the array x1, over
    the terms with x_j = exponent(x1, j) <= _EXP_CUTOFF; x_j must grow with
    j, and w_j = weight(j) defaults to 1.

    j runs in blocks of 8 that double in width, up to _SERIES_BLOCK terms
    in all, and only the elements whose last term was kept go on to the
    next block, so the memory stays O(len(x1)) whatever the number of terms.
    """
    x1 = np.asarray(x1, dtype=float)
    flat = x1.ravel()
    total = np.zeros(flat.size)
    active = np.arange(flat.size)
    j0, width = first, 8
    while active.size:
        j = np.arange(j0, j0 + width, dtype=float)
        x = exponent(flat[active, None], j)
        kept = x <= _EXP_CUTOFF
        terms = np.exp(-x, out=np.zeros(x.shape), where=kept)
        if weight is not None:
            terms *= weight(j)
        total[active] += terms.sum(axis=1)
        active = active[kept[:, -1]]
        j0 += width
        width = max(1, min(2 * width, _SERIES_BLOCK // max(active.size, 1)))
    return total.reshape(x1.shape)


def circle_heat_trace(L: float, theta: float = 0.0, rank: int = 1) -> HeatTrace:
    """Circle of length L with a rotation character theta in [0, 2 pi).

    Spectrum ((2 pi m + theta)/L)^2, m in Z, each with multiplicity `rank`;
    power rank L/sqrt(4 pi t).  One mode formula serves every angle: with
    a = theta/(2 pi) the nonzero modes are (2 pi (m + x)/L)^2, m >= 0, for
    x = lo = a and x = hi = 1 - a, but lo = 1 at theta = 0, where the
    constant modes are a kernel of dimension rank (one series, doubled,
    where lo = hi).  The remainder is the exact image sum, cosine-weighted
    for theta != 0 (the conjugate characters of a rank-2 rotation block),
    so full(t) = kernel + tail(t) holds to rounding at the split point t = 1.
    BadParameter refuses a rank that is not a positive integer.
    """
    _length(L, "L")
    _angle(theta, "theta")
    rank = _as_int(rank, "rank", BadParameter, low=1)
    pref = L / math.sqrt(4.0 * math.pi)
    scale = (2.0 * math.pi / L) ** 2
    a = theta / (2.0 * math.pi)
    lo, hi = (a if theta else 1.0), 1.0 - a
    lam_min = (2.0 * math.pi * min(lo, hi) / L) ** 2
    if lam_min < _LAMBDA_FLOOR:
        raise NumericalLimit(f"theta = {theta:g} at L = {L:g}: the lowest eigenvalue underflows")
    weight = (lambda j: np.cos(j * theta)) if theta else None
    quarter = 0.25 * L * L

    def remainder(t):
        """rank pref/sqrt(t) 2 sum_{j>=1} w_j exp(-j^2 L^2/(4t)), w_j = cos(j theta)."""
        t = np.asarray(t, dtype=float)
        images = _exp_series(quarter / t, lambda x, j: x * j * j, weight=weight)
        return (2.0 * rank * pref / np.sqrt(t)) * images

    def modes(y, x):
        """sum_{m>=0} exp(-y (m + x)^2) for each element of y = scale t."""
        return _exp_series(y, lambda y, m: y * (m + x) * (m + x), first=0)

    def tail(t):
        y = scale * np.asarray(t, dtype=float)
        if lo == hi:
            return 2.0 * rank * modes(y, lo)
        return rank * (modes(y, lo) + modes(y, hi))

    return HeatTrace(terms=((0.5, rank * pref),), remainder=remainder, tail=tail,
                     kernel_dim=0 if theta else rank, lambda_min=lam_min)


@lru_cache(maxsize=None)
def sphere2_power_coefficients() -> tuple[tuple[int, Fraction], ...]:
    """Exact heat coefficients ((j, c_j), ...) of the scalar round 2-sphere
    for t^-1 .. t^11, zeros omitted.

    Tr e^{-tL} = e^{t/4} sum_{u in N0 + 1/2} g(u) with g(u) = 2u e^{-t u^2}.
    Midpoint Euler-Maclaurin, with g^(2k-1)(0) = 2 (2k-1)! (-t)^(k-1)/(k-1)!
    and B_2k(1/2) = (2^(1-2k) - 1) B_2k, gives the half-integer sum
    1/t - sum_{k>=1} B_2k(1/2) (-t)^(k-1)/k!.  B_2 .. B_24 cover t^11.
    """
    from fractions import Fraction  # here alone: importing the library loads no fractions

    # mid[i] is the coefficient of t^(i-1) in the half-integer sum
    mid = [Fraction(1)] + [(1 - Fraction(2) ** (1 - 2 * k)) * Fraction(*b2k) * (-1) ** (k - 1)
                           / math.factorial(k) for k, b2k in enumerate(_BERNOULLI, start=1)]
    coeffs = ((j, sum(mid[i] / (4 ** (j + 1 - i) * math.factorial(j + 1 - i))
                      for i in range(j + 2)))
              for j in range(-1, len(_BERNOULLI)))
    return tuple((j, c) for j, c in coeffs if c != 0)


def sphere2_scalar_heat_trace() -> HeatTrace:
    """Scalar Laplacian on the round 2-sphere: eigenvalues l(l+1), mult 2l+1.

    The expansion is asymptotic: its terms run through t^11 and the
    remainder is the eigenvalue sum minus them, which is rounding noise where
    c_11 t^11 is below the rounding of the sum (t below about 0.1), so it is
    0 there.  mellin_zeta counts the cut and that noise in its estimate and
    refuses Re s <= -11.
    """
    terms = tuple((-float(td), float(c)) for td, c in sphere2_power_coefficients())
    cut = _expansion_cut(terms)

    def eigen_terms(t, first: int) -> np.ndarray:
        """(2l + 1) e^{-t l(l+1)} for l = first .. l_max(t), one row for each
        element of the 1-d array t, and 0 past each row's own l_max."""
        l_max = np.sqrt(_EXP_CUTOFF / t + 9.0).astype(int) + 4
        l = np.arange(first, l_max.max(initial=first) + 1)
        return np.where(l <= l_max[:, None], (2 * l + 1) * np.exp(-t[:, None] * l * (l + 1)), 0.0)

    def remainder(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        above = t >= cut
        ta = t[above]
        # one exact sum per node, so only the rounding of each term is left
        rows = np.hstack([eigen_terms(ta, 0)] + [(-c * ta ** (-p))[:, None] for p, c in terms])
        out[above] = [math.fsum(row) for row in rows.tolist()]
        return out

    def tail(t):
        t = np.asarray(t, dtype=float)
        return eigen_terms(t.ravel(), 1).sum(axis=1).reshape(t.shape)

    return HeatTrace(terms=terms, remainder=remainder, tail=tail, kernel_dim=1, lambda_min=2.0)


def _length(value, name: str, scale: float = 1.0) -> None:
    """Refuse, naming `name`, a length that is not a positive and finite real
    number (BadParameter), or whose circle, of length ell = scale value, needs
    more than _SERIES_TERMS terms at t = 1 (sqrt(4 _EXP_CUTOFF)/ell images or
    ell sqrt(_EXP_CUTOFF)/(2 pi) modes; NumericalLimit), which also keeps its
    eigenvalues and integration limits finite."""
    if not 0.0 < _as_real(value, name, BadParameter) < math.inf:
        raise BadParameter(f"{name} must be positive and finite, got {value}")
    ell = scale * value
    terms = max(math.sqrt(4.0 * _EXP_CUTOFF) / ell, ell * math.sqrt(_EXP_CUTOFF) / (2.0 * math.pi))
    if terms > _SERIES_TERMS:
        raise NumericalLimit(f"{name} = {value:g} needs {terms:.2g} series terms, over {_SERIES_TERMS}")


# --- the continuation engine -------------------------------------------------


class ZetaEval(NamedTuple):
    """One evaluation of a spectral zeta: value, optional d/ds, error bound,
    and the number of quadrature nodes it used, whether the trace was sampled
    on them afresh or reused from its memo."""

    s: complex
    value: float | complex
    derivative: float | None
    abs_error_estimate: float
    kernel_dim: int
    nodes: int


QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-14  # values reach 1e5 (the circle character at s = 2.5)
# The last level accepts what the levels could not reach, up to this: the theta
# series' e^-50 cutoff, amplified by t^(s-1) at very negative s, leaves steps
# in the integrand that stall the levels near 1e-12 relative.
QUAD_EPSREL_LAST = 1e-11
_TS_REACH = 4.0     # |u| <= 4: the outermost nodes lie 1e-37 half-widths from an end
_TS_MAX_LEVEL = 8   # h = 2^-8, 2049 nodes per integral
# The levels each trace call evaluates: most integrals stop at level 3 to 5,
# so levels 0-4 (129 nodes) go in one call and each later level in its own.
_TS_GROUPS = ((0, 1, 2, 3, 4),) + tuple((m,) for m in range(5, _TS_MAX_LEVEL + 1))


@lru_cache(maxsize=None)
def _tanh_sinh_nodes(levels: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """(c, w, left, starts), read-only, for the nodes u = k 2^-m, 0 <= u <=
    _TS_REACH, first used at each level m of levels (every k at level 0, odd
    k after), level after level: t = lo + half c where left, else hi - half c
    (the midpoint, k = 0, once), with c = 1 - tanh(pi/2 sinh u) formed
    without cancellation and dt/du = half w; levels[i]'s nodes begin at
    starts[i]."""
    c, w, left, starts = [], [], [], []
    for level in levels:
        starts.append(len(c))
        h = 2.0 ** -level
        for k in range(0 if level == 0 else 1, int(_TS_REACH / h) + 1, 1 if level == 0 else 2):
            v = 0.5 * math.pi * math.sinh(k * h)
            sides = (True,) if k == 0 else (True, False)
            c += [2.0 / (1.0 + math.exp(2.0 * v))] * len(sides)
            w += [0.5 * math.pi * math.cosh(k * h) / math.cosh(v) ** 2] * len(sides)
            left += sides
    arrays = (np.array(c), np.array(w), np.array(left), np.array(starts))
    for array in arrays:
        array.flags.writeable = False
    return arrays


# (group of _TS_GROUPS, position in it) for each level m = 0 .. _TS_MAX_LEVEL
_TS_LEVELS = tuple((group, i) for group, levels in enumerate(_TS_GROUPS) for i in range(len(levels)))


def _node_arrays(trace, name: str, lo: float, hi: float, group: int) -> tuple[np.ndarray, ...]:
    """(positions, t, trace(t) dt/du) at the nodes of _TS_GROUPS[group] over
    [lo, hi] where trace is nonzero, read-only: all that quad needs of the
    trace there, none of it dependent on the weights.  A trace that returns
    another shape than its nodes' raises ShapeMismatch naming it `name`."""
    c, w, left, _ = _tanh_sinh_nodes(_TS_GROUPS[group])
    half = 0.5 * (hi - lo)
    t = np.where(left, lo + half * c, hi - half * c)
    f = np.asarray(trace(t), dtype=float)
    if f.shape != t.shape:
        raise ShapeMismatch(f"the {name} returned shape {f.shape} on {t.size} nodes")
    at = np.flatnonzero(f)
    arrays = (at, t[at], f[at] * w[at])
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Sampled:
    """h's remainder or tail as quad's trace: its node arrays are read from
    h's memo, HeatTrace._samples, or formed once by _node_arrays and kept
    there.  nodes counts every node quad uses, sampled afresh or not."""

    __slots__ = ("h", "part", "nodes")

    def __init__(self, h: HeatTrace, part: str):
        self.h, self.part, self.nodes = h, part, 0

    def node_arrays(self, lo: float, hi: float, group: int) -> tuple[np.ndarray, ...]:
        self.nodes += _tanh_sinh_nodes(_TS_GROUPS[group])[0].size
        key = (self.part, lo, hi, group)
        arrays = self.h._samples.get(key)
        if arrays is None:
            trace = getattr(self.h, self.part)
            arrays = self.h._samples[key] = _node_arrays(trace, self.part, lo, hi, group)
        return arrays


def quad(trace, weights, lo: float, hi: float, epsabs, full_output: int = 0):
    """int_lo^hi w(t) trace(t) dt for each weight w in weights(t), by one
    nested tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974).

    trace and weights take an array of nodes: trace returns an array of its
    shape and weights a sequence of such arrays.  The nodes of levels 0-4
    (129) go to trace in one call, then those of each later level in one,
    and of each call _node_arrays keeps the positions where the trace is
    nonzero, t there and trace(t) dt/du there.  mellin_zeta passes, in place
    of a trace, a _Sampled, whose node_arrays method reads these from the
    trace's memo.  The weights are formed at those t alone, so a weight that
    would overflow where the trace vanishes is never formed, and scattered
    into the full node row, zeros included, whose slices np.add.reduceat
    sums to each level's sum.  One flat loop in Python floats runs over the
    levels: h = 2^-m halves the step; with d_m the change from level m-1 to
    m, level m's error is estimated as d_m^2 / d_{m-1}, as the convergence
    is quadratic.  From level 2 on, each integral aims at max(epsabs[i],
    QUAD_EPSREL |value|), and the last level, _TS_MAX_LEVEL, accepts
    QUAD_EPSREL_LAST; an integral that misses that too, or a value that is
    not finite, raises QuadratureFailure.  Returns (values, errors), and
    also {"neval": trace evaluations} with full_output.
    """
    node_arrays = getattr(trace, "node_arrays", None)
    if node_arrays is None:
        node_arrays = partial(_node_arrays, trace, "trace")
    half = 0.5 * (hi - lo)
    count = len(epsabs)
    values, change, errors = [0.0] * count, [math.inf] * count, [0.0] * count
    neval = 0
    # a weight that overflows where the trace is nonzero makes the value inf
    # or nan, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for level, (group, row) in enumerate(_TS_LEVELS):
            if row == 0:
                at, t, ftw = node_arrays(lo, hi, group)
                c, _, _, starts = _tanh_sinh_nodes(_TS_GROUPS[group])
                neval += c.size
                terms = np.zeros((count, c.size))
                for i, weight in enumerate(weights(t)):
                    terms[i, at] = weight * ftw
                sums = np.add.reduceat(terms, starts, axis=1).T.tolist()
            scale = half * 2.0 ** -level
            finite = converged = True
            for i, (x, eps) in enumerate(zip(sums[row], epsabs)):
                v = 0.5 * values[i] + scale * x
                d, last = abs(v - values[i]), change[i]
                values[i], change[i] = v, d
                errors[i] = err = d * d / last if last else d
                finite = finite and math.isfinite(v)
                converged = converged and err <= max(eps, QUAD_EPSREL * abs(v))
            if not finite:
                raise QuadratureFailure(f"integral over [{lo:g}, {hi:g}] returned {values}")
            if level >= 2 and converged:
                break
        else:
            if not all(err <= max(eps, QUAD_EPSREL_LAST * abs(v))
                       for err, eps, v in zip(errors, epsabs, values)):
                raise QuadratureFailure(
                    f"integral over [{lo:g}, {hi:g}]: error estimate {max(errors):.1e} "
                    f"after {neval} nodes, above the target")
    if full_output:
        return tuple(values), tuple(errors), {"neval": neval}
    return tuple(values), tuple(errors)


# Rounding allowed each summed part of Gamma(s) zeta(s), relative (about 45 eps).
_ROUNDING = 1e-14

# The sphere's remainder, one exact sum of rounded terms, is off by at most
# 0.76 eps sum_p |c_p| t^-p on [cut, 1] (1500 points against 30-digit sums).
_DIFFERENCE_ROUNDING = 2.0 * math.ulp(1.0)


def _expansion_error(terms, sigma: float) -> tuple[float, float]:
    """Bounds on the error the cut of a truncated expansion through t^N leaves
    in int_0^1 w(t) remainder(t) dt, for w = t^(sigma-1) and t^(sigma-1) |log t|:
    below the cut |c_N| t^N bounds the dropped remainder, above it
    _DIFFERENCE_ROUNDING sum_p |c_p| t^-p bounds its rounding.  Needs sigma > -N."""
    cut = _expansion_cut(terms)
    if cut == 0.0:
        return 0.0, 0.0
    p_last, c_last = terms[-1]
    a = sigma - p_last
    if a <= 0.0:
        raise NumericalLimit(f"the expansion continues zeta to Re s > {p_last:g} only")
    log_cut = -math.log(cut)
    bound = abs(c_last) * cut ** a / a + _DIFFERENCE_ROUNDING * sum(
        abs(c) * (log_cut if sigma == p else (1.0 - cut ** (sigma - p)) / (sigma - p))
        for p, c in terms)
    return bound, bound * (1.0 / a + log_cut)


def mellin_zeta(h: HeatTrace, s: float | complex, derivative: bool = False) -> ZetaEval:
    """Evaluate zeta(s) (and optionally zeta'(s)) for a HeatTrace model.

    s may be any finite real or complex number (a bool is not one) away
    from the poles {p > 0 with c_p != 0}; s = -n takes the s = -n rule of
    the module docstring.
    Derivatives are supported for real s.  Every integral is one split: a
    weighted remainder on (cut, 1] and a weighted tail on [1, upper], each
    one quad call that evaluates the trace once per node for all its weights
    (value and derivative, or the real and imaginary parts of t^(s-1)).
    """
    if type(s) is bool or not isinstance(s, numbers.Number):
        raise BadParameter(f"s must be a number, got {s!r}")
    given, s = s, complex(s)
    if not cmath.isfinite(s):
        raise BadParameter(f"s must be finite, got {given}")
    for p in h.positive_powers:
        if abs(s - p) < 1e-8:
            raise PoleHit(f"zeta has a pole at s = {p}")
    upper = max(2.0, _EXP_CUTOFF / h.lambda_min)
    b = h.kernel_dim
    cut = _expansion_cut(h.terms)  # the remainder is 0 below it
    cut_err, log_err = _expansion_error(h.terms, s.real)
    nodes = 0

    def split(weights, bounds) -> tuple[tuple, tuple, list[float]]:
        """(int_cut^1 w remainder, int_1^upper w tail, quad error) for each
        weight w in weights(t); the remainder integral of weight i aims at
        bounds[i], its own known rounding, where that exceeds QUAD_EPSABS."""
        nonlocal nodes
        rem_part, tail_part = _Sampled(h, "remainder"), _Sampled(h, "tail")
        rem, e1 = quad(rem_part, weights, cut, 1.0, [max(QUAD_EPSABS, bound) for bound in bounds])
        tl, e2 = quad(tail_part, weights, 1.0, upper, [QUAD_EPSABS] * len(bounds))
        nodes += rem_part.nodes + tail_part.nodes
        return rem, tl, [x + y for x, y in zip(e1, e2)]

    def error(factor, quad_err: float, bound: float, parts) -> float:
        """|factor| times the quadrature error, the known bound and the
        rounding of the parts that are summed to what factor multiplies."""
        return abs(factor) * (5.0 * quad_err + bound + _ROUNDING * sum(map(abs, parts)))

    n = round(-s.real)
    if n >= 0 and abs(s + n) < 1e-13:
        c_n = sum(c for p, c in h.terms if p == -n)
        r_n = c_n - (b if n == 0 else 0)  # R of the module docstring
        fact = _rgamma_prime(-n)
        err = abs(fact) * 1e-15 * (abs(c_n) + b + 1.0)
        deriv = None
        if derivative:
            (rem_int,), (tail_int,), (e,) = split(lambda t: (1.0 / t ** (n + 1),), [cut_err])
            psi = sum(1.0 / k for k in range(1, n + 1)) - EULER_GAMMA
            f_parts = ([-psi * r_n] + [c / (-n - p) for p, c in h.terms if p != -n]
                       + [b / n if n else 0.0, rem_int, tail_int])
            deriv = fact * sum(f_parts)
            err += error(fact, e, cut_err + 1e-13, f_parts)
        return ZetaEval(s=s, value=fact * r_n + 0.0, derivative=deriv,  # 0.0, not -0.0
                        abs_error_estimate=err, kernel_dim=b, nodes=nodes)

    closed = [c / (s - p) for p, c in h.terms] + [-b / s]
    if s.imag != 0.0:
        if derivative:
            raise BadParameter("derivative evaluation is supported for real s only")

        def parts(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # t^(s-1) for t > 0 as Python's complex power forms it: the
            # modulus by pow, the phase from log t
            modulus, phase = t ** (s.real - 1.0), s.imag * np.log(t)
            return modulus * np.cos(phase), modulus * np.sin(phase)

        re_im_rem, re_im_tail, (e_re, e_im) = split(parts, [cut_err, cut_err])
        f_parts = closed + [complex(*re_im_rem), complex(*re_im_tail)]
        rg = rgamma(s)
        return ZetaEval(s=s, value=rg * sum(f_parts), derivative=None,
                        abs_error_estimate=error(rg, e_re + e_im, cut_err, f_parts) + _ROUNDING,
                        kernel_dim=b, nodes=nodes)

    sr, a = s.real, s.real - 1.0
    if derivative:
        def weights(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            w = t ** a
            return w, w * np.log(t)

        rem, tl, (e, e_log) = split(weights, [cut_err, log_err])
    else:
        rem, tl, (e,) = split(lambda t: (t ** a,), [cut_err])
    f_parts = [x.real for x in closed] + [rem[0], tl[0]]
    rg = rgamma(sr)
    err = error(rg, e, cut_err, f_parts) + _ROUNDING
    deriv = None
    if derivative:
        # one exact sum: (1/Gamma)' times each part of f plus 1/Gamma times
        # each part of f', so no partial sum rounds before the weights apply
        rgp = _rgamma_prime(sr)
        f_prime = [-c / (sr - p) ** 2 for p, c in h.terms] + [b / sr ** 2, rem[1], tl[1]]
        deriv = math.fsum([rgp * x for x in f_parts] + [rg * x for x in f_prime])
        err += error(rgp, e, cut_err, f_parts) + error(rg, e_log, log_err, f_prime)
    return ZetaEval(s=s, value=rg * sum(f_parts), derivative=deriv, abs_error_estimate=err,
                    kernel_dim=b, nodes=nodes)
