"""Exact answers for the benchmark jobs, computed without torsionlab.

Closed forms come from the paper's model spectra and are evaluated with
`math` or, for zeta values and their s-derivatives, with `mpmath` at 30
digits.  Nothing here imports the library, so a defect in the library
cannot leak into the reference it is checked against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

mp.mp.dps = 30


def circle_log_torsion(theta: float) -> float:
    """log(4 sin^2(theta/2)): the log torsion of the rank-2 theta-twisted circle."""
    return math.log(4.0 * math.sin(theta / 2.0) ** 2)


def metric_shift(traces) -> float:
    """Shift of log torsion under h_k = exp(S_k): 1/2 sum_k (-1)^(k+1) tr S_k."""
    return 0.5 * math.fsum((-1.0) ** (k + 1) * t for k, t in enumerate(traces))


# --- spectral zetas -----------------------------------------------------------
#
# Each family maps s (an mpf or mpc) to zeta(s) = sum over the positive
# spectrum of lambda^(-s).


def _circle_character(s, theta, L, rank):
    # spectrum ((2 pi m + theta)/L)^2, m in Z, multiplicity rank
    a = mp.mpf(theta) / (2 * mp.pi)
    scale = (mp.mpf(L) / (2 * mp.pi)) ** (2 * s)
    return rank * scale * (mp.zeta(2 * s, a) + mp.zeta(2 * s, 1 - a))


def _torus(s, n, L):
    # spectrum (2 pi / L)^2 |m|^2, m in Z^n \ 0
    scale = (mp.mpf(L) / (2 * mp.pi)) ** (2 * s)
    if n == 1:
        return scale * 2 * mp.zeta(2 * s)
    if n == 2:  # r_2 generating series: 4 zeta(s) beta(s)
        return scale * 4 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1])
    if n == 4:  # Jacobi's four-square theorem
        return scale * 8 * (1 - mp.mpf(4) ** (1 - s)) * mp.zeta(s) * mp.zeta(s - 1)
    raise ValueError(f"no closed form for the {n}-torus")


_SPHERE_TERMS = 45  # the series below converges like 9^(-j)


def _sphere(s):
    # l(l+1) = u^2 - 1/4 with u = l + 1/2, multiplicity 2u; expand binomially
    a = mp.mpf(3) / 2
    return 2 * mp.fsum(mp.binomial(s + j - 1, j) * mp.mpf(4) ** (-j)
                       * mp.zeta(2 * s + 2 * j - 1, a) for j in range(_SPHERE_TERMS))


def _sphere_at_zero():
    # the j = 1 term s * zeta_H(2s + 1) is a removable 0 * pole at s = 0
    a = mp.mpf(3) / 2
    value = 2 * (mp.zeta(-1, a) + mp.mpf(1) / 8)
    deriv = 2 * (2 * mp.zeta(-1, a, 1) - mp.digamma(a) / 4
                 + mp.fsum(mp.mpf(4) ** (-j) * mp.zeta(2 * j - 1, a) / j
                           for j in range(2, _SPHERE_TERMS)))
    return value, deriv


def _interval(s, R, mixed):
    # Dirichlet and Neumann: (m pi / R)^2, m >= 1; mixed: ((m + 1/2) pi / R)^2
    scale = (mp.mpf(R) / mp.pi) ** (2 * s)
    return scale * (mp.zeta(2 * s, mp.mpf(1) / 2) if mixed else mp.zeta(2 * s))


def _family(spec: tuple):
    kind = spec[0]
    if kind == "circle":
        _, theta, L, rank = spec
        return lambda s: _circle_character(s, theta, L, rank)
    if kind == "torus":
        _, n, L = spec
        return lambda s: _torus(s, n, L)
    if kind == "interval":
        _, R, mixed = spec
        return lambda s: _interval(s, R, mixed)
    raise ValueError(f"unknown family {kind!r}")


@lru_cache(maxsize=None)
def zeta(spec: tuple, s, derivative: bool = False):
    """(value, derivative or None) of the family's zeta at s, as Python numbers.

    spec is ("circle", theta, L, rank), ("torus", n, L), ("sphere2",) or
    ("interval", R, mixed); complex s gives a complex value and no derivative.
    """
    if spec[0] == "sphere2" and s == 0:
        value, deriv = _sphere_at_zero()
        return float(value), (float(deriv) if derivative else None)
    f = _sphere if spec[0] == "sphere2" else _family(spec)
    if isinstance(s, complex):
        return complex(f(mp.mpc(s.real, s.imag))), None
    x = mp.mpf(s)
    return float(f(x)), (float(mp.diff(f, x)) if derivative else None)
