"""Property test: one mode formula for the circle at every character angle."""

import math

import pytest

from torsionlab import circle_heat_trace
from torsionlab.zetas import _EXP_CUTOFF

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = math.ulp(1.0)
ULPS = 4


def eigenvalue_sum(L: float, theta: float, rank: int, t: float) -> tuple[float, float]:
    """(sum, scale) over the nonzero eigenvalues lam = (2 pi m + theta)^2/L^2,
    m in Z, with t lam <= _EXP_CUTOFF: sum of rank e^(-t lam) by math.fsum,
    and sum of rank e^(-t lam) (1 + x + k), x = t lam, k = 2 x/|m + a| for
    the rounding of a = theta/(2 pi) in the library's modes m + a, m + 1 - a."""
    reach = L * math.sqrt(_EXP_CUTOFF / t) / (2.0 * math.pi)
    a = theta / (2.0 * math.pi)
    terms, scale = [], []
    for m in range(math.floor(-reach - a) - 1, math.ceil(reach - a) + 2):
        if theta == 0.0 and m == 0:
            continue  # the kernel
        x = t * ((2.0 * math.pi * m + theta) / L) ** 2
        if x <= _EXP_CUTOFF:
            term = rank * math.exp(-x)
            terms.append(term)
            scale.append(term * (1.0 + x + 2.0 * x / abs(m + a)))
    return math.fsum(terms), math.fsum(scale)


def check(L: float, theta: float, rank: int, t: float) -> None:
    h = circle_heat_trace(L, theta, rank)
    value, scale = eigenvalue_sum(L, theta, rank, t)
    assert abs(float(h.tail(t)) - value) <= ULPS * EPS * scale
    # the plain circle's trace is the sum of the absolute image terms, up to
    # 28 of them at L = 0.5, each rounded
    plain = float(circle_heat_trace(L, 0.0, rank).full(1.0))
    assert h.consistency_residual() <= 4 * ULPS * EPS * plain


lengths = st.floats(0.5, 20.0)
times = st.floats(1.0, 30.0)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(L=lengths, theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True), t=times)
@hypothesis.example(L=2.0 * math.pi, theta=0.0, t=1.0)
@hypothesis.example(L=2.0 * math.pi, theta=math.pi, t=1.0)
@hypothesis.example(L=1.0, theta=1e-9, t=30.0)
@hypothesis.example(L=1.0, theta=2.0 * math.pi - 1e-9, t=30.0)
def test_circle_tail_is_its_eigenvalue_sum(L, theta, t):
    # near 1e-150 the lowest eigenvalue (theta/L)^2 reaches the floor below
    # which the trace refuses
    hypothesis.assume(theta == 0.0 or theta > 1e-150)
    check(L, theta, 2, t)


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(L=lengths, rank=st.sampled_from((1, 2)), t=times)
def test_untwisted_circle_tail_is_its_eigenvalue_sum(L, rank, t):
    check(L, 0.0, rank, t)
