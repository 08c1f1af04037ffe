import math
import re
import tracemalloc
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from torsionlab import (
    build_interval,
    circle_heat_trace,
    combine_heat_traces,
    digamma,
    mellin_zeta,
    product_heat_trace,
    sphere2_scalar_heat_trace,
    zeta_at_zero,
)
from torsionlab import zetas
from torsionlab.errors import (
    BadParameter,
    NumericalLimit,
    PoleHit,
    QuadratureFailure,
    ShapeMismatch,
)
from torsionlab.models import build_model, torus
from torsionlab.verify import _hurwitz
from torsionlab.zetas import (
    _EXP_CUTOFF,
    _rgamma_prime,
    rgamma,
    sphere2_power_coefficients,
)


def test_digamma_values():
    euler = 0.5772156649015329
    assert abs(digamma(1.0) + euler) < 1e-12
    assert abs(digamma(0.5) + euler + 2.0 * math.log(2.0)) < 1e-12
    assert abs(digamma(5.0) - (digamma(1.0) + sum(1.0 / k for k in range(1, 5)))) < 1e-12
    for pole in (0.0, -2.0):
        with pytest.raises(BadParameter, match=f"^digamma pole at nonpositive integer {pole}$"):
            digamma(pole)


def test_rgamma_zeros_and_values():
    assert rgamma(1.0) == 1.0
    assert abs(rgamma(0.5) - 1.0 / math.sqrt(math.pi)) < 1e-14
    for m in (0, -1, -2, -5):
        assert abs(rgamma(float(m))) < 1e-15
    # complex s on both sides of Re s = 1/2, where rgamma reflects
    mpmath = pytest.importorskip("mpmath")
    for s in (-3.7 + 2j, 0.2 + 1j, 0.49 + 0.5j, 0.51 - 0.5j, 0.8 - 3j, 2.5 + 4j):
        exact = complex(mpmath.rgamma(s))
        assert abs(rgamma(s) - exact) <= 1e-14 * abs(exact), s


def test_rgamma_prime_closed_forms():
    # d/ds 1/Gamma is Euler's gamma at 1 and (-1)^n n! at the zero s = -n
    assert abs(_rgamma_prime(1.0) - 0.5772156649015329) < 1e-15
    assert _rgamma_prime(0.0) == 1.0
    assert _rgamma_prime(-2.0) == 2.0


def test_rgamma_prime_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for s in (-1.5, 0.75, 2.5):
        exact = float(mpmath.diff(mpmath.rgamma, s))
        assert abs(_rgamma_prime(s) - exact) < 4e-15 * max(1.0, abs(exact))


# --- heat traces ----------------------------------------------------------------


def interval(kind: str, R: float):
    """The Dirichlet, Neumann or mixed interval factor, as boundary.py builds it."""
    condition = {"dirichlet": "relative", "neumann": "absolute", "mixed": "mixed"}[kind]
    return build_interval(R, condition).heat[0]


# --- mpmath references for the heat traces -------------------------------------
#
# Each reference sums the terms the library keeps (those whose exponent x is
# at most _EXP_CUTOFF, or the sphere's l <= l_max(t)) in 30-digit arithmetic
# from the same float inputs.  It returns (value, scale), where scale is
# sum |term| (1 + x + k): the condition number of exp(-x) at a rounded x, plus
# k for a rounded input inside x or the weight.  The library must land within
# REFERENCE_ULPS ulp of that scale, at scalar t and on arrays of t.

REFERENCE_ULPS = 4
EPS = math.ulp(1.0)
REMAINDER_TS = (0.01, 0.05, 0.2, 0.3, 0.7, 1.0)
TAIL_TS = (1.0, 1.7, 3.0, 10.0, 40.0, 200.0)


class Reference(NamedTuple):
    terms: tuple       # the library trace's (p, c) power terms
    remainder: object  # mpf t -> (value, scale)
    tail: object


def _kept(exponent, first=1):
    """j = first, first + 1, ... while exponent(j) <= _EXP_CUTOFF."""
    j = first
    while exponent(j) <= _EXP_CUTOFF:
        yield j
        j += 1


def _series(mp, terms):
    """(sum w e^-x, sum e^-x (1 + x + k)) over (x, w, k); |w| <= 1."""
    value = scale = mp.mpf(0)
    for x, w, k in terms:
        e = mp.exp(-x)
        value += w * e
        scale += e * (1 + x + k)
    return value, scale


def _power(mp, terms, t):
    """(sum c t^-p, sum |c| t^-p) over float (p, c) terms."""
    parts = [mp.mpf(c) * t ** -mp.mpf(p) for p, c in terms]
    return mp.fsum(parts), mp.fsum(abs(x) for x in parts)


def circle_reference(mp, h, L, theta=0.0, rank=1):
    L, th = mp.mpf(L), mp.mpf(theta)
    omega = (2 * mp.pi / L) ** 2

    def remainder(t):
        pre = 2 * rank * L / mp.sqrt(4 * mp.pi * t)

        def x(j):
            return L * L * j * j / (4 * t)

        value, scale = _series(mp, ((x(j), mp.cos(j * th), j * th) for j in _kept(x)))
        return pre * value, pre * scale

    def tail(t):
        if theta == 0.0:
            def x(j):
                return omega * j * j * t
            value, scale = _series(mp, ((x(j), 1, 0) for j in _kept(x)))
            return 2 * rank * value, 2 * rank * scale
        if theta == math.pi:
            def x(j):
                return (mp.pi / L) ** 2 * (2 * j + 1) ** 2 * t
            value, scale = _series(mp, ((x(j), 1, 0) for j in _kept(x, 0)))
            return 2 * rank * value, 2 * rank * scale
        # m + a and m + 1 - a for m >= 0; a is rounded, which moves x by
        # 2 x |da / (m + a or m + 1 - a)|
        a = th / (2 * mp.pi)
        terms = []
        for low in (a, 1 - a):
            def x(m, low=low):
                return omega * (m + low) ** 2 * t
            terms += [(x(m), 1, 2 * x(m) * a / (m + low)) for m in _kept(x, 0)]
        value, scale = _series(mp, terms)
        return rank * value, rank * scale

    return Reference(h.terms, remainder, tail)


def torus_reference(mp, h, n, L):
    """(1 + sigma)^n - 1 times the power, with sigma a circle series, and the
    scale of sigma carried through d/dsigma (1 + sigma)^n."""
    L = mp.mpf(L)
    pref = L / mp.sqrt(4 * mp.pi)
    omega = (2 * mp.pi / L) ** 2

    def power_of(sigma, sigma_scale, factor=1):
        value = factor * mp.expm1(n * mp.log1p(sigma))  # no 1 subtracted from 1 + sigma
        return value, abs(value) * (n + 1) + factor * n * (1 + sigma) ** (n - 1) * sigma_scale

    def images(t):
        def x(j):
            return L * L * j * j / (4 * t)
        value, scale = _series(mp, ((x(j), 1, 0) for j in _kept(x)))
        return 2 * value, 2 * scale

    def remainder(t):
        return power_of(*images(t), factor=(pref / mp.sqrt(t)) ** n)

    def tail(t):
        if float(omega) * float(t) >= 1.0:
            def x(j):
                return omega * j * j * t
            value, scale = _series(mp, ((x(j), 1, 0) for j in _kept(x)))
            return power_of(2 * value, 2 * scale)
        # the image form, whose - 1 cancels against a power near 1
        sigma, sigma_scale = images(t)
        front = pref / mp.sqrt(t)
        return power_of(front * (1 + sigma) - 1, front * (1 + sigma + sigma_scale) + 1)

    return Reference(h.terms, remainder, tail)


def sphere_reference(mp, h):
    """The eigenvalue sum through l_max(t), less the expansion above the cut."""
    cut = zetas._expansion_cut(h.terms)

    def eigen(t, first):
        l_max = int(math.sqrt(_EXP_CUTOFF / float(t) + 9.0)) + 4
        return _series(mp, ((t * l * (l + 1), 2 * l + 1, 2 * l) for l in range(first, l_max + 1)))

    def remainder(t):
        if t < cut:
            return mp.mpf(0), mp.mpf(0)
        (value, scale), (power, power_abs) = eigen(t, 0), _power(mp, h.terms, t)
        return value - power, scale + power_abs

    return Reference(h.terms, remainder, lambda t: eigen(t, 1))


def combine_reference(mp, h, parts):
    """sum_i c_i times each part's reference; parts are (c_i, reference builder)."""
    parts = [(c, build(mp)) for c, build in parts]

    def summed(which):
        def evaluate(t):
            pairs = [(c, getattr(ref, which)(t)) for c, ref in parts]
            return (mp.fsum(c * v for c, (v, _) in pairs),
                    mp.fsum(abs(c) * s for c, (_, s) in pairs))
        return evaluate

    return Reference(h.terms, summed("remainder"), summed("tail"))


def product_reference(mp, h, r1, b1, r2, b2):
    """The product of the factors' references r1, r2 (builders), kernels b1, b2."""
    r1, r2 = r1(mp), r2(mp)
    dropped = [(p1 + p2, c1 * c2) for p1, c1 in r1.terms for p2, c2 in r2.terms
               if p1 + p2 < 0.0]

    def remainder(t):
        (p1, a1), (p2, a2) = _power(mp, r1.terms, t), _power(mp, r2.terms, t)
        (x1, s1), (x2, s2) = r1.remainder(t), r2.remainder(t)
        extra, extra_abs = _power(mp, dropped, t)
        return p1 * x2 + x1 * p2 + x1 * x2 + extra, a1 * s2 + s1 * a2 + s1 * s2 + extra_abs

    def tail(t):
        (x1, s1), (x2, s2) = r1.tail(t), r2.tail(t)
        return b1 * x2 + b2 * x1 + x1 * x2, b1 * s2 + b2 * s1 + s1 * s2

    return Reference(h.terms, remainder, tail)


def trace_families():
    """name -> (library trace, reference builder mp -> Reference) for every
    trace family."""
    out = {}
    # theta = 1e-9 and 2 pi - 1e-9: a lowest mode near 0 or near 1
    for L, theta, rank in ((1.0, 0.0, 1), (2.0 * math.pi, 0.7, 2), (2.0, math.pi, 1),
                           (2.0 * math.pi, 6.2, 2), (20.0, 0.05, 2), (2.0 * math.pi, 1e-9, 2),
                           (1.0, 2.0 * math.pi - 1e-9, 2)):
        h = circle_heat_trace(L, theta, rank)
        out[f"circle(L={L:g},theta={theta:g})"] = h, partial(circle_reference, h=h, L=L,
                                                               theta=theta, rank=rank)
    for L in (1.0, 6.0, 20.0):
        for n in (1, 2, 3, 4):
            h = torus(n=n, L=L).heat[0]
            out[f"torus(n={n},L={L:g})"] = h, partial(torus_reference, h=h, n=n, L=L)
    h = sphere2_scalar_heat_trace()
    out["sphere2"] = h, partial(sphere_reference, h=h)
    # the interval factors are halves of the circle of length 2R, the mixed
    # one with the character pi
    R, L = 1.1, 6.0
    for kind, theta in (("dirichlet", 0.0), ("neumann", 0.0), ("mixed", math.pi)):
        h = interval(kind, R)
        doubled = partial(circle_reference, h=circle_heat_trace(2.0 * R, theta), L=2.0 * R,
                          theta=theta)
        out[f"interval-{kind}(R={R:g})"] = h, partial(combine_reference, h=h,
                                                        parts=[(0.5, doubled)])
    # the relative cylinder: two products and their sum
    circle = circle_heat_trace(L)
    cylinder = []
    for kind in ("dirichlet", "neumann"):
        factor, factor_ref = out[f"interval-{kind}(R={R:g})"]
        h = product_heat_trace(factor, circle)
        cylinder.append((h, partial(product_reference, h=h, r1=factor_ref, b1=factor.kernel_dim,
                                    r2=partial(circle_reference, h=circle, L=L),
                                    b2=circle.kernel_dim)))
        out[f"product-{kind}(R={R:g},L={L:g})"] = cylinder[-1]
    (h0, ref0), (h2, ref2) = cylinder
    h = combine_heat_traces([(1, h2), (1, h0)])
    out["combine-cylinder-degree-1"] = h, partial(combine_reference, h=h,
                                                  parts=[(1, ref2), (1, ref0)])
    return out


TRACE_FAMILIES = trace_families()


@pytest.mark.parametrize("family", list(TRACE_FAMILIES))
def test_heat_trace_matches_mpmath_reference(family):
    mp = pytest.importorskip("mpmath").mp
    h, build = TRACE_FAMILIES[family]
    with mp.workdps(30):
        ref = build(mp)
        for which, ts in (("remainder", REMAINDER_TS), ("tail", TAIL_TS)):
            evaluate, reference = getattr(h, which), getattr(ref, which)
            on_array = evaluate(np.array(ts).reshape(2, 3))
            assert on_array.shape == (2, 3)
            for t, got_in_array in zip(ts, on_array.ravel()):
                value, scale = reference(mp.mpf(t))
                for got in (evaluate(t), got_in_array):
                    assert abs(mp.mpf(float(got)) - value) <= REFERENCE_ULPS * EPS * scale, \
                        (which, t)


def test_series_memory_stays_linear_in_the_nodes():
    # the level-8 nodes (u = k/256, 0 <= k <= 1024) of the remainder and tail
    # integrals, through series of up to 1.4e4 terms (L = 1e-3 at t = 1) and
    # over the widest tail interval, [1, 8e6]
    u = np.arange(1025) / 256.0
    c = 2.0 / (1.0 + np.exp(np.pi * np.sinh(u)))
    small = circle_heat_trace(1e-3)
    wide = circle_heat_trace(20.0, 0.05, 2)
    upper = max(2.0, _EXP_CUTOFF / wide.lambda_min)
    for evaluate, t in ((small.remainder, 1.0 - 0.5 * c), (wide.tail, 1.0 + 0.5 * (upper - 1.0) * c)):
        tracemalloc.start()
        try:
            values = evaluate(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == t.shape and np.all(np.isfinite(values))
        assert peak < 2 * 2 ** 20


def reference_interval(kind: str, R: float):
    """The interval factors' data as written before they became half circles:
    (terms, kernel_dim, lambda_min).  Their remainder and tail values are held
    to the mpmath references above."""
    pref = R / math.sqrt(4.0 * math.pi)
    if kind in ("dirichlet", "neumann"):
        sign = -0.5 if kind == "dirichlet" else 0.5
        return (((0.5, pref), (0.0, sign)), 0 if kind == "dirichlet" else 1,
                (math.pi / R) ** 2)
    return ((0.5, pref),), 0, (math.pi / (2.0 * R)) ** 2


def test_interval_factors_match_reference_closures():
    for R in (0.5, 1.0, 1.1, math.pi):
        for kind in ("dirichlet", "neumann", "mixed"):
            h = interval(kind, R)
            assert (h.terms, h.kernel_dim, h.lambda_min) == reference_interval(kind, R)
            assert type(h.kernel_dim) is int


def test_interval_factors_against_eigenvalue_sums():
    spectra = {
        "dirichlet": lambda R: [(m * math.pi / R) ** 2 for m in range(1, 400)],
        "neumann": lambda R: [(m * math.pi / R) ** 2 for m in range(0, 400)],
        "mixed": lambda R: [((m + 0.5) * math.pi / R) ** 2 for m in range(0, 400)],
    }
    for kind, spectrum in spectra.items():
        for R in (0.5, 1.1, math.pi):
            h = interval(kind, R)
            for t in (0.05, 0.3, 1.0, 3.0):
                direct = sum(math.exp(-t * lam) for lam in spectrum(R))
                assert abs(h.full(t) - direct) < 1e-12 * max(1.0, direct)
                assert abs(h.kernel_dim + h.tail(t) - direct) < 1e-12 * max(1.0, direct)


def test_theta_split_consistency():
    factors = [circle_heat_trace(2.0 * math.pi),
               circle_heat_trace(1.0),
               interval("dirichlet", 1.0),
               interval("dirichlet", math.pi),
               interval("neumann", 1.0),
               interval("mixed", 0.5),
               torus(n=2, L=1.0).heat[0],
               torus(n=3, L=1.0).heat[0],
               circle_heat_trace(2.0 * math.pi, 0.7, 2)]
    for h in factors:
        assert h.consistency_residual() < 1e-10


def test_theta_image_vs_direct_sum_small_t():
    # dirichlet on [0, pi]: images against the raw eigenvalue sum at t = 0.1
    h = interval("dirichlet", math.pi)
    direct = sum(math.exp(-0.1 * m * m) for m in range(1, 50))
    assert abs(h.full(0.1) - direct) < 1e-12

    h2 = torus(n=2, L=1.0).heat[0]
    omega = (2.0 * math.pi) ** 2
    direct = sum(math.exp(-0.05 * omega * (i * i + j * j))
                 for i in range(-40, 41) for j in range(-40, 41))
    assert abs(h2.full(0.05) - direct) < 1e-12


def test_character_trace_reduces_to_plain_circle():
    h0 = circle_heat_trace(2.0 * math.pi)
    h1 = circle_heat_trace(2.0 * math.pi, 0.0, 1)
    for t in (0.2, 1.0):
        assert abs(h0.full(t) - h1.full(t)) < 1e-14
    # at theta = 0 the constant modes are a kernel of dimension rank
    h2 = circle_heat_trace(2.0 * math.pi, 0.0, 2)
    assert h2.kernel_dim == 2
    for t in (0.2, 1.0):
        assert abs(h2.full(t) - 2.0 * h0.full(t)) < 1e-14
    with pytest.raises(BadParameter):
        circle_heat_trace(1.0, theta=2.0 * math.pi)


def test_product_heat_trace_terms():
    R, L = 1.0, 2.0 * math.pi
    hd = product_heat_trace(interval("dirichlet", R), circle_heat_trace(L))
    terms = dict(hd.terms)
    assert abs(terms[1.0] - R * L / (4.0 * math.pi)) < 1e-14
    assert abs(terms[0.5] + L / (2.0 * math.sqrt(4.0 * math.pi))) < 1e-14
    assert 0.0 not in terms
    assert hd.kernel_dim == 0

    hn = product_heat_trace(interval("neumann", R), circle_heat_trace(L))
    terms = dict(hn.terms)
    assert abs(terms[0.5] - L / (2.0 * math.sqrt(4.0 * math.pi))) < 1e-14
    assert hn.kernel_dim == 1
    assert abs((zeta_at_zero(hn) - zeta_at_zero(hd)) - (-1.0)) < 1e-14
    with pytest.raises(BadParameter, match="^multiply at least one heat trace$"):
        product_heat_trace()


def test_product_heat_trace_pointwise_and_split():
    f1 = interval("neumann", 0.8)
    f2 = circle_heat_trace(1.5)
    prod = product_heat_trace(f1, f2)
    for t in (0.3, 0.7, 1.0):
        assert abs(prod.full(t) - f1.full(t) * f2.full(t)) < 1e-12
    assert prod.consistency_residual() < 1e-10
    # a factor repeated out of order, and a kernel-free one
    f3 = interval("dirichlet", 1.3)
    triple = product_heat_trace(f1, f3, f2, f1)
    for t in (0.3, 0.7, 1.0):
        direct = f1.full(t) ** 2 * f2.full(t) * f3.full(t)
        assert abs(triple.full(t) - direct) < 1e-13 * direct
    assert triple.consistency_residual() < 1e-10
    assert triple.kernel_dim == 0 and triple.lambda_min == f3.lambda_min


def test_sum_and_scale_heat_traces():
    f1 = interval("dirichlet", 1.0)
    f2 = interval("neumann", 1.0)
    s = combine_heat_traces([(1, f1), (1, f2)])
    assert s.kernel_dim == 1
    for t in (0.4, 1.0):
        assert abs(s.full(t) - f1.full(t) - f2.full(t)) < 1e-13
    tripled = combine_heat_traces([(3, f2)])
    assert tripled.kernel_dim == 3
    assert abs(tripled.full(0.5) - 3.0 * f2.full(0.5)) < 1e-13
    # a negative constant removes kernel: Neumann minus its constant mode
    stripped = combine_heat_traces([(1, f2)], constant=-1)
    assert stripped.kernel_dim == 0
    assert abs(stripped.full(0.5) - (f2.full(0.5) - 1.0)) < 1e-14
    assert stripped.tail(2.0) == f2.tail(2.0)


def test_combine_rejects_non_integer_or_negative_kernel():
    circle = circle_heat_trace(1.0)
    with pytest.raises(BadParameter):
        combine_heat_traces([(0.5, circle)])
    with pytest.raises(BadParameter):
        combine_heat_traces([(0.5, circle)], constant=0.25)
    with pytest.raises(BadParameter):
        combine_heat_traces([(1, circle)], constant=-2)
    with pytest.raises(BadParameter):
        combine_heat_traces([])


def test_combine_three_parts_is_the_sum_of_the_parts():
    parts = [(0.5, circle_heat_trace(2.0)), (2, torus(n=3, L=1.5).heat[0]),
             (1, circle_heat_trace(2.0 * math.pi, 0.7, 2))]
    h = combine_heat_traces(parts, constant=-0.5)
    assert h.kernel_dim == 2  # 0.5 + 2 + 0 - 0.5
    assert h.lambda_min == min(part.lambda_min for _, part in parts)
    assert dict(h.terms)[0.0] == -0.5
    for which, ts in (("remainder", REMAINDER_TS), ("tail", TAIL_TS)):
        t = np.array(ts)
        parts_sum = sum(c * getattr(part, which)(t) for c, part in parts)
        scale = sum(abs(c * getattr(part, which)(t)) for c, part in parts)
        assert np.all(np.abs(getattr(h, which)(t) - parts_sum) <= 4 * EPS * scale)
    for t in (0.3, 1.0):
        assert abs(h.full(t) - sum(c * part.full(t) for c, part in parts) + 0.5) < 1e-13


# t^-1 .. t^11 heat coefficients of the scalar round 2-sphere
_SPHERE_COEFFICIENTS = (
    (-1, Fraction(1)), (0, Fraction(1, 3)), (1, Fraction(1, 15)),
    (2, Fraction(4, 315)), (3, Fraction(1, 315)), (4, Fraction(4, 3465)),
    (5, Fraction(382, 675675)), (6, Fraction(232, 675675)),
    (7, Fraction(2833, 11486475)), (8, Fraction(560204, 2749862115)),
    (9, Fraction(13051226, 68746552875)), (10, Fraction(311192456, 1581170716125)),
    (11, Fraction(1064987954, 4743512148375)),
)


def test_sphere_coefficients_exact():
    assert sphere2_power_coefficients() == _SPHERE_COEFFICIENTS
    h = sphere2_scalar_heat_trace()
    # the truncated expansion matches the eigenvalue sum above the cut
    # (t ~ 0.1), below which the remainder is 0 by construction
    assert abs(h.remainder(0.2)) < 1e-11
    assert h.consistency_residual() < 1e-12


def _bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0 .. B_m (B_1 = -1/2) from sum_{k<=j} C(j+1, k) B_k = 0."""
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


def _sphere_zeta_at_negative_integer(n: int) -> Fraction:
    """zeta_{S^2}(-n) from the binomial-Hurwitz series
    2 sum_j C(n, j) (-1/4)^j zeta_H(2j - 2n - 1, 3/2), which terminates:
    zeta_H(-m, a) = -B_{m+1}(a)/(m+1), and the j = n + 1 term is the
    removable 0 * pole, with limit -(-1/4)^(n+1) / (2(n+1))."""
    bern = _bernoulli_numbers(2 * n + 2)

    def bernoulli_poly(m: int, x: Fraction) -> Fraction:
        return sum(math.comb(m, k) * bern[k] * x ** (m - k) for k in range(m + 1))

    quarter = Fraction(-1, 4)
    total = sum(math.comb(n, j) * quarter ** j
                * -bernoulli_poly(2 * n - 2 * j + 2, Fraction(3, 2)) / (2 * n - 2 * j + 2)
                for j in range(n + 1))
    return 2 * (total - quarter ** (n + 1) / (2 * (n + 1)))


def test_sphere_zeta_at_negative_integers_bernoulli_oracle():
    # an exact oracle that shares nothing with the heat expansion
    expected = [Fraction(-2, 3), Fraction(-1, 15), Fraction(8, 315), Fraction(-2, 105),
                Fraction(32, 1155), Fraction(-3056, 45045)]
    coeffs = dict(sphere2_power_coefficients())
    sphere = build_model("sphere2")
    for n, value in enumerate(expected):
        assert _sphere_zeta_at_negative_integer(n) == value
        # zeta(-n) = (-1)^n n! (c_{-n} - b [n = 0]), in exact arithmetic
        assert (-1) ** n * math.factorial(n) * (coeffs[n] - (1 if n == 0 else 0)) == value
        for k, mult in enumerate((1, 2, 1)):
            ev = sphere.zeta(k, -n)
            assert abs(ev.value - mult * float(value)) <= 4e-16 * abs(mult * float(value))
            assert abs(ev.value - mult * float(value)) <= ev.abs_error_estimate


def test_zeta_at_negative_integers_on_exact_traces():
    # no t^n terms: zeta(-n) = 0 exactly, as zeta_R(-2n) = 0 gives for the circle
    for h in (circle_heat_trace(1.7), torus(n=2, L=1.0).heat[0], interval("mixed", 1.0)):
        for n in (1, 2, 3):
            ev = mellin_zeta(h, -n, derivative=True)
            assert ev.value == 0.0 and math.copysign(1.0, ev.value) == 1.0
            near = mellin_zeta(h, -n + 1e-7, derivative=True)
            assert abs(ev.derivative - near.derivative) < 1e-5 * max(1.0, abs(ev.derivative))


def _sphere2_zeta(mp, s):
    """zeta_{S^2}(s) = 2 sum_j C(-s, j) (-1/4)^j zeta_H(2s + 2j - 1, 3/2), converging
    like 9^-j; at s = 1 - j its j-th term is a removable 0 * pole."""
    return 2 * mp.fsum(mp.binomial(-s, j) * mp.mpf(-0.25) ** j
                       * mp.zeta(2 * s + 2 * j - 1, mp.mpf(1.5)) for j in range(28))


def test_sphere_estimate_bounds_the_error():
    mp = pytest.importorskip("mpmath")

    def series(s):
        return _sphere2_zeta(mp, s)

    sphere = build_model("sphere2")
    points = [(s, True) for s in (-10.5, -9.5, -7.5, -5.5, -4.5, -3.5, -2.5, -1.5, -0.5,
                                  0.75, 2.5)]
    points += [(-n, False) for n in range(1, 11)]  # derivative only: removable 0 * pole
    for s, with_value in points:
        with mp.workdps(22):
            # mp.diff samples the series off s, never at the removable point
            deriv = float(mp.diff(series, mp.mpf(s)))
            value = float(series(mp.mpf(s))) if with_value else None
        for k, mult in ((0, 1), (1, 2)):
            ev = sphere.zeta(k, s, derivative=True)
            if with_value:
                assert abs(ev.value - mult * value) <= ev.abs_error_estimate
            assert abs(ev.derivative - mult * deriv) <= ev.abs_error_estimate
    for s in (complex(-5.5, 1.0), complex(-8.5, 0.5)):
        with mp.workdps(22):
            value = complex(series(mp.mpc(s.real, s.imag)))
        ev = sphere.zeta(0, s)
        assert abs(ev.value - value) <= ev.abs_error_estimate
    # the first two points of the list above, against 40-digit values
    assert abs(sphere.zeta(0, -2.5).value - -0.0022440126778265867) < 1e-12
    assert abs(sphere.zeta(0, -3.5).value - 0.00035591246773071301) < 1e-11


def test_mellin_rejects_non_finite_s():
    for s in (math.nan, math.inf, complex(0.5, math.inf)):
        with pytest.raises(BadParameter):
            mellin_zeta(circle_heat_trace(1.0), s)


def test_sphere_refuses_beyond_its_expansion():
    h = sphere2_scalar_heat_trace()
    for s in (-11.0, -12.0, -11.5, complex(-11.5, 1.0)):
        with pytest.raises(NumericalLimit):
            mellin_zeta(h, s)


# --- continuation engine --------------------------------------------------------


def test_mellin_circle_against_closed_form():
    for L in (2.0 * math.pi, 1.7):
        h = circle_heat_trace(L)
        scale = (2.0 * math.pi / L) ** 2
        for s in (2.0, 3.0):
            closed = 2.0 * scale ** (-s) * _hurwitz(2.0 * s)
            ev = mellin_zeta(h, s)
            assert abs(ev.value - closed) < 1e-9
            assert abs(ev.value - closed) <= max(ev.abs_error_estimate, 1e-12)
        # s = -1 lands on the trivial zero of zeta_R(2s), exactly 0
        ev = mellin_zeta(h, -1.0)
        assert abs(ev.value) < 1e-9
        assert abs(ev.value) <= max(ev.abs_error_estimate, 1e-12)
        assert mellin_zeta(h, 0.0).value == -1.0
        ev = mellin_zeta(h, 0.0, derivative=True)
        assert abs(ev.derivative + 2.0 * math.log(L)) < 1e-8


def test_mellin_dirichlet_against_closed_form():
    for R in (1.0, math.pi):
        h = interval("dirichlet", R)
        scale = (math.pi / R) ** 2
        for s in (-1.0, 2.0):
            closed = scale ** (-s) * _hurwitz(2.0 * s)
            assert abs(mellin_zeta(h, s).value - closed) < 1e-9
        assert mellin_zeta(h, 0.0).value == -0.5
        ev = mellin_zeta(h, 0.0, derivative=True)
        assert abs(ev.derivative + math.log(2.0 * R)) < 1e-8


def test_mellin_pole_hits():
    h = circle_heat_trace(2.0 * math.pi)
    with pytest.raises(PoleHit):
        mellin_zeta(h, 0.5)
    h2 = torus(n=2, L=1.0).heat[0]
    with pytest.raises(PoleHit):
        mellin_zeta(h2, 1.0)


def test_mellin_zeta_zero_is_coefficient_arithmetic():
    cases = [
        (circle_heat_trace(2.0 * math.pi), -1.0),
        (interval("dirichlet", 1.0), -0.5),
        (interval("neumann", 1.0), -0.5),
        (interval("mixed", 1.0), 0.0),
        (torus(n=2, L=1.0).heat[0], -1.0),
        (circle_heat_trace(2.0 * math.pi, 0.7, 2), 0.0),
    ]
    for h, expected in cases:
        assert mellin_zeta(h, 0.0).value == zeta_at_zero(h)
        assert abs(zeta_at_zero(h) - expected) < 1e-14


def test_mellin_character_derivative_hurwitz_oracle():
    # rank-2 character: zeta'(0) = 2 d/ds [zeta_H(2s,a) + zeta_H(2s,1-a)]|_0
    #                           = -4 log(2 sin(theta/2)), L-independent
    for theta in (0.7, math.pi / 2, 2.5):
        a = theta / (2.0 * math.pi)
        oracle = 4.0 * (_hurwitz(0.0, a, derivative=True)
                        + _hurwitz(0.0, 1.0 - a, derivative=True))
        closed = -4.0 * math.log(2.0 * math.sin(theta / 2.0))
        assert abs(oracle - closed) < 1e-11
        for L in (2.0 * math.pi, 1.0):
            h = circle_heat_trace(L, theta, 2)
            ev = mellin_zeta(h, 0.0, derivative=True)
            assert abs(ev.derivative - closed) < 1e-8


def test_mellin_sphere_zeta_zero_and_binomial_oracle():
    h = sphere2_scalar_heat_trace()
    ev = mellin_zeta(h, 0.0)
    oracle = 2.0 * (_hurwitz(-1.0, 1.5) + 0.125)
    assert abs(ev.value - oracle) < 1e-12
    assert abs(ev.value + 2.0 / 3.0) < 1e-12
    # eigenvalue telescoping: sum (2l+1) / (l(l+1))^2 = 1
    assert abs(mellin_zeta(h, 2.0).value - 1.0) < 1e-9


def test_mellin_direct_sum_consistency():
    h2 = torus(n=2, L=1.0).heat[0]
    omega = (2.0 * math.pi) ** 2
    brute = sum((omega * (i * i + j * j)) ** -3.0
                for i in range(-80, 81) for j in range(-80, 81)
                if (i, j) != (0, 0))
    assert abs(mellin_zeta(h2, 3.0).value - brute) < 1e-9


def test_torus_zeta_prime_against_closed_forms():
    # the weight t^(s-1) log t over the tail amplifies any absolute rounding
    # of the trace; 1- and 2-torus zetas are Riemann and Dirichlet-beta forms
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    L, s = 6.0, 2.5
    scale = (2 * mpmath.pi / L) ** 2
    closed_forms = {
        1: lambda x: 2 * scale ** -x * mpmath.zeta(2 * x),
        2: lambda x: 4 * scale ** -x * mpmath.zeta(x) * mpmath.dirichlet(x, [0, 1, 0, -1]),
    }
    for n, zeta in closed_forms.items():
        ev = mellin_zeta(torus(n=n, L=L).heat[0], s, derivative=True)
        assert abs(ev.derivative - float(mpmath.diff(zeta, s))) < 1e-14


def test_torus_remainder_vanishes_without_overflow():
    # the rule's nodes reach t ~ 1e-37, where (pref/sqrt(t))^20 would
    # overflow a float and the image sum is already 0
    h = torus(n=20, L=1.0).heat[0]
    assert h.remainder(1e-37) == 0.0
    assert math.isfinite(mellin_zeta(h, 2.5).value)


def test_torus_refusals():
    with pytest.raises(BadParameter, match="dimension"):
        torus(n=0, L=1.0).heat[0]
    with pytest.raises(NumericalLimit, match="^L = 900000 overflows"):
        torus(n=60, L=9e5).heat[0]


def test_mellin_complex_s():
    h = circle_heat_trace(2.0 * math.pi)
    ev = mellin_zeta(h, complex(2.0, 0.5))
    # compare against the absolutely convergent direct sum
    direct = sum(2.0 * complex(m * m) ** complex(-2.0, -0.5)
                 for m in range(1, 4000))
    assert abs(ev.value - direct) < 1e-6
    with pytest.raises(BadParameter):
        mellin_zeta(h, complex(2.0, 0.5), derivative=True)


def test_quadrature_warning_raises():
    # sin(1/t) oscillates without bound near t = 0: quad cannot reach its target
    h = circle_heat_trace(2.0 * math.pi)._replace(remainder=lambda t: np.sin(1.0 / t))
    with pytest.raises(QuadratureFailure):
        mellin_zeta(h, 2.0)
    # full_output, as a tracer that counts nodes calls it, raises just the same
    with pytest.raises(QuadratureFailure):
        zetas.quad(h.remainder, lambda t: (t,), 0.0, 1.0, [zetas.QUAD_EPSABS], full_output=1)
    # an integral that is not finite is refused at its first level, not returned
    with pytest.raises(QuadratureFailure, match=r"^integral over \[0, 1\] returned \[inf\]$"):
        zetas.quad(lambda t: np.full(t.shape, np.inf), lambda t: (t,), 0.0, 1.0,
                   [zetas.QUAD_EPSABS])


def test_error_estimates_bound_the_true_error():
    # calibration against mpmath closed forms: on every kind of trace, at s on
    # both sides of the poles and off the real axis, the estimate bounds the
    # true error of the value and of zeta'
    mp = pytest.importorskip("mpmath")
    L, R = 6.0, mp.mpf(1.1)
    scale = (2 * mp.pi / L) ** 2

    def character(theta):
        a = mp.mpf(theta) / (2 * mp.pi)
        return lambda s: 2 * (mp.zeta(2 * s, a) + mp.zeta(2 * s, 1 - a))

    def sphere(s):
        return mp.mpf(-2) / 3 if s == 0 else _sphere2_zeta(mp, s)

    def dirichlet(s):
        return (R / mp.pi) ** (2 * s) * mp.zeta(2 * s)

    cases = [
        (circle_heat_trace(2.0 * math.pi, 0.7, 2), character(0.7)),
        (circle_heat_trace(2.0 * math.pi, 2.9, 2), character(2.9)),
        (torus(n=1, L=L).heat[0], lambda s: 2 * scale ** -s * mp.zeta(2 * s)),
        (torus(n=2, L=L).heat[0],
         lambda s: 4 * scale ** -s * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1])),
        # Jacobi: sum_k r_4(k) k^-s = 8 (1 - 4^(1-s)) zeta(s) zeta(s-1)
        (torus(n=4, L=L).heat[0],
         lambda s: 8 * scale ** -s * (1 - 4 ** (1 - s)) * mp.zeta(s) * mp.zeta(s - 1)),
        (sphere2_scalar_heat_trace(), sphere),
        (interval("dirichlet", 1.1), dirichlet),
        (interval("neumann", 1.1), dirichlet),
        (interval("mixed", 1.1), lambda s: (R / mp.pi) ** (2 * s) * mp.zeta(2 * s, 0.5)),
    ]
    for h, zeta in cases:
        for s in (-1.5, 0.0, 0.75, 2.5, complex(0.5, 2.0)):
            with mp.workdps(25):
                if isinstance(s, complex):
                    value, deriv = complex(zeta(mp.mpc(s.real, s.imag))), None
                else:
                    # mp.diff samples zeta off s, never at a removable point
                    value, deriv = float(zeta(mp.mpf(s))), float(mp.diff(zeta, mp.mpf(s)))
            ev = mellin_zeta(h, s, derivative=deriv is not None)
            assert abs(ev.value - value) <= ev.abs_error_estimate
            if deriv is not None:
                assert abs(ev.derivative - deriv) <= ev.abs_error_estimate


def test_nodes_count_the_trace_evaluations():
    h = circle_heat_trace(2.0 * math.pi, 0.7, 2)
    calls = []
    counted = h._replace(remainder=lambda t: calls.append(t.size) or h.remainder(t),
                         tail=lambda t: calls.append(t.size) or h.tail(t))
    ev = mellin_zeta(counted, 0.75, derivative=True)
    # one call per group of levels, each counting its whole batch of nodes
    assert ev.nodes == sum(calls) > 0
    assert len(calls) < ev.nodes
    assert mellin_zeta(h, 0.0).nodes == 0  # coefficient arithmetic alone


# --- the trace's sample memo ---------------------------------------------------

# real s, complex s, and s = -n with and without the derivative
_MEMO_CALLS = ((2.5, False), (0.75, True), (complex(0.5, 2.0), False),
               (-1.0, True), (0.0, True), (-2.5, False), (1.5, True))
_MEMO_TRACES = (partial(circle_heat_trace, 2.0 * math.pi, 0.7, 2),
                sphere2_scalar_heat_trace,  # its remainder integral starts at the cut
                # a partial keeps the test id make2, where a bare lambda reads <lambda>
                partial(lambda n, L: torus(n=n, L=L).heat[0], 2, 6.0))


@pytest.mark.parametrize("make", _MEMO_TRACES)
def test_memo_leaves_every_zeta_bitwise(make):
    # repr round-trips each float, so equal reprs are bitwise equal values
    # (value, derivative, abs_error_estimate) and equal node counts
    fresh = [repr(mellin_zeta(make(), s, derivative=d)) for s, d in _MEMO_CALLS]
    for order in (1, -1):
        h = make()
        reused = {(s, d): repr(mellin_zeta(h, s, derivative=d)) for s, d in _MEMO_CALLS[::order]}
        assert [reused[call] for call in _MEMO_CALLS] == fresh
        assert h._samples


def test_memo_samples_each_group_once():
    h = circle_heat_trace(2.0 * math.pi, 0.7, 2)
    calls = []
    counted = h._replace(remainder=lambda t: calls.append(t.size) or h.remainder(t),
                         tail=lambda t: calls.append(t.size) or h.tail(t))
    first = mellin_zeta(counted, 2.5)
    assert first.nodes == sum(calls) > 0
    for s, derivative in ((2.5, False), (0.75, True), (complex(0.5, 2.0), False)):
        sampled, calls[:] = set(counted._samples), []
        ev = mellin_zeta(counted, s, derivative=derivative)
        # a trace call only for a group no earlier call sampled
        assert len(calls) == len(set(counted._samples) - sampled)
        assert ev.nodes == mellin_zeta(h, s, derivative=derivative).nodes
    calls[:] = []
    assert repr(mellin_zeta(counted, 2.5)) == repr(first)
    assert calls == []


def test_memo_is_private_to_each_trace():
    h = circle_heat_trace(6.0, 1.3, 2)
    # the poles and the cut are formed at the first zeta, once, and stay read-only
    assert "_limits" not in vars(h)
    for s, derivative in _MEMO_CALLS:
        mellin_zeta(h, s, derivative=derivative)
    assert h._limits is h._limits == (h.positive_powers, zetas._expansion_cut(h.terms))
    with pytest.raises(AttributeError):
        h._limits = ((), 0.0)
    samples = h._samples
    # at most one entry per part and group: the positions of the nonzero
    # samples, t there and trace(t) dt/du there, three read-only arrays of
    # at most the group's nodes
    assert 0 < len(samples) <= 2 * len(zetas._TS_GROUPS)
    assert {part for part, *_ in samples} == {"remainder", "tail"}
    for (_, _, _, group), arrays in samples.items():
        nodes = zetas._tanh_sinh_nodes(zetas._TS_GROUPS[group])[0].size
        assert len(arrays) == 3 and len({a.size for a in arrays}) == 1
        for a in arrays:
            assert a.ndim == 1 and a.size <= nodes and a.itemsize == 8
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
    # so a trace's memo, even with every group of both parts sampled, stays
    # under 24 bytes a node: 2 x 2049 nodes, 96 KiB
    nodes = sum(zetas._tanh_sinh_nodes(levels)[0].size for levels in zetas._TS_GROUPS)
    assert nodes == 2049
    assert sum(a.nbytes for arrays in samples.values() for a in arrays) <= 2 * nodes * 24 < 98_400
    # a copy starts an empty memo, and fills its own
    other = h._replace()
    assert other._samples == {} and other._samples is not samples
    assert "_limits" not in vars(other)
    mellin_zeta(other, 2.5)
    assert other._samples and len(samples) == len(h._samples)
    # a copy is another trace with the same fields: traces compare by identity
    assert "_samples" not in repr(h) and repr(other) == repr(h) and other != h


def test_memo_keeps_nothing_from_a_trace_that_raises():
    h = circle_heat_trace(2.0 * math.pi, 0.7, 2)

    def fails(t):
        raise ZeroDivisionError("trace failed")

    for part in ("remainder", "tail"):
        broken = h._replace(**{part: fails})
        with pytest.raises(ZeroDivisionError):
            mellin_zeta(broken, 2.5)
        # the remainder is integrated first: its failure leaves nothing at all
        assert all(key[0] == "remainder" for key in broken._samples)
        assert bool(broken._samples) == (part == "tail")


def test_memo_refuses_a_trace_of_another_shape():
    # a part that returns a scalar, or fewer values than nodes, is refused
    # where it is sampled, naming the part, by mellin_zeta and plain quad
    h = circle_heat_trace(2.0 * math.pi, 0.7, 2)
    upper = _EXP_CUTOFF / h.lambda_min
    for wrong in (lambda t: 0.0, lambda t: np.ones(3)):
        for part, lo, hi in (("remainder", 0.0, 1.0), ("tail", 1.0, upper)):
            broken = h._replace(**{part: wrong})
            with pytest.raises(ShapeMismatch, match=f"^the {part} returned shape"):
                mellin_zeta(broken, 2.5)
            assert all(key[0] != part for key in broken._samples)
            with pytest.raises(ShapeMismatch, match="^the trace returned shape"):
                zetas.quad(getattr(broken, part), lambda t: (t,), lo, hi, [zetas.QUAD_EPSABS])


@pytest.mark.parametrize("make", _MEMO_TRACES)
def test_plain_quad_matches_the_memo(make, monkeypatch):
    # every integral mellin_zeta forms through the memo, cold or warm, is
    # bitwise the one quad forms from the plain remainder or tail, and
    # full_output's neval counts the nodes mellin_zeta reports
    real_quad, calls = zetas.quad, []

    def recording(trace, weights, lo, hi, epsabs):
        out = real_quad(trace, weights, lo, hi, epsabs)
        calls.append((weights, lo, hi, epsabs, out))
        return out

    monkeypatch.setattr(zetas, "quad", recording)
    h = make()
    for s, derivative in _MEMO_CALLS * 2:
        calls[:] = []
        ev = mellin_zeta(h, s, derivative=derivative)
        neval = 0
        for weights, lo, hi, epsabs, out in calls:
            plain = getattr(h, "tail" if lo == 1.0 else "remainder")
            assert repr(real_quad(plain, weights, lo, hi, epsabs)) == repr(out)
            values, errors, info = real_quad(plain, weights, lo, hi, epsabs, full_output=1)
            assert repr((values, errors)) == repr(out)
            neval += info["neval"]
        assert len(calls) == 2
        assert neval == ev.nodes


def test_quad_sums_a_level_with_no_nonzero_sample_to_zero():
    # a bump on (0.25, 0.35) that every node of levels 0, 1 and 3 misses: quad
    # keeps no sample of those levels and sums each to exactly 0.0
    def bump(t):
        x = (np.asarray(t) - 0.3) / 0.05
        return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 8, 0.0)

    def weights(t):
        return t ** -0.25, np.ones(t.shape)

    level, t, ftw = zetas._node_arrays(bump, "trace", 0.0, 1.0, 0)
    assert set(level.tolist()) == {2, 4}
    for weight in weights(t):
        sums = np.bincount(level, weight * ftw, 5)
        assert sums[0] == sums[1] == sums[3] == 0.0 != sums[2]
    values, errors, info = zetas.quad(bump, weights, 0.0, 1.0, [zetas.QUAD_EPSABS] * 2,
                                      full_output=1)
    # the reference: each level's full node row, zeros included, summed exactly,
    # and the nested trapezoid rule v_m = v_{m-1}/2 + half 2^-m x_m over them
    dense = []
    for levels in zetas._TS_GROUPS:
        c, w, left, index = zetas._tanh_sinh_nodes(levels)
        nodes = np.where(left, 0.5 * c, 1.0 - 0.5 * c)
        rows = [w * bump(nodes) * weight for weight in weights(nodes)]
        dense += [[math.fsum(row[index == i]) for row in rows] for i in range(len(levels))]
    assert dense[0] == dense[1] == dense[3] == [0.0, 0.0]
    reference = [0.0, 0.0]
    for m, x in enumerate(dense):
        reference = [0.5 * v + 0.5 * 2.0 ** -m * xm for v, xm in zip(reference, x)]
    # the bump takes every level, so quad's values are the last level's
    assert info["neval"] == 2049
    for value, exact in zip(values, reference):
        assert abs(value - exact) <= 4.0 * math.ulp(exact)
    assert all(0.0 < e < 1e-12 for e in errors)


def test_circle_heat_trace_refuses_a_rank_that_is_not_a_positive_integer():
    # before, rank=-1 gave a kernel of dimension -1, rank=1.5 one of 1.5 and
    # rank="2" a raw TypeError
    for rank, shown in ((-1, "must be positive, got -1"), (0, "must be positive, got 0"),
                        (1.5, "must be an integer, got 1.5"), ("2", "must be an integer, got '2'"),
                        (True, "must be an integer, got True"), (None, "must be an integer, got None")):
        with pytest.raises(BadParameter, match=f"^rank {re.escape(shown)}$"):
            circle_heat_trace(1.0, 0.0, rank)
    assert circle_heat_trace(1.0, 0.0, np.int64(3)).kernel_dim == 3
    # models.circle states its own rule first, with its own message
    with pytest.raises(BadParameter, match="^circle rank must be 1 or 2, got 0$"):
        build_model("circle", rank=0)
