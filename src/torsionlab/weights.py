"""Degree weights, shared by both halves: generalized_log_torsion sums
tr log L_k (torsion), res_k or -zeta_k'(0) (models) with them, and every
entry that takes weights reads them through _weights, the one weight rule.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadParameter, ShapeMismatch, _as_real

SECOND_DIFFERENCE_TOL = 1e-12


def _weights(beta: Sequence[float], length: int | None = None) -> tuple[float, ...]:
    """beta as floats: `length` of them when given (ShapeMismatch), each a finite
    real number (BadParameter).  A float or an int is read without a check or
    a name; any other weight goes through errors._as_real."""
    weights = tuple(float(b) if type(b) is float or type(b) is int
                    else _as_real(b, f"weight beta_{k}", BadParameter)
                    for k, b in enumerate(beta))
    if length is not None and len(weights) != length:
        raise ShapeMismatch(f"got {length} traces but {len(weights)} weights")
    for k, b in enumerate(weights):
        if not math.isfinite(b):
            raise BadParameter(f"weight beta_{k} must be finite, got {b!r}")
    return weights


def generalized_log_torsion(tr_logs: Sequence[float], beta: Sequence[float]) -> float:
    """1/2 * sum_k (-1)^(k+1) beta_k * t_k, linear in both arguments."""
    beta = _weights(beta, len(tr_logs))
    return 0.5 * sum((-1.0) ** (k + 1) * b * t
                     for k, (t, b) in enumerate(zip(tr_logs, beta)))


def euler_characteristics(b: Sequence[int], n: int) -> tuple[int, int]:
    """(chi, chi') = (sum (-1)^k b_k, sum (-1)^k k b_k) for Betti numbers b.

    When b is palindromic (b_k = b_{n-k}) these satisfy
    chi' * (1 + (-1)^n) = n * chi; in particular chi' = (n/2) chi for even n.
    """
    if len(b) != n + 1:
        raise ShapeMismatch(f"expected {n + 1} Betti numbers, got {len(b)}")
    chi = sum((-1) ** k * bk for k, bk in enumerate(b))
    chi_prime = sum((-1) ** k * k * bk for k, bk in enumerate(b))
    return chi, chi_prime


class BetaClassification(NamedTuple):
    """Outcome of the second-difference test on a degree-weight vector.

    satisfies_recurrence means beta_{k+1} - 2 beta_k + beta_{k-1} = 0 for
    all interior k, i.e. beta = lam * (1,...,1) + mu * (0,1,...,n).  A
    second difference counts as 0 when its modulus is at most
    SECOND_DIFFERENCE_TOL * max(1, max_j |beta_j|): relative to the weights'
    size, so (1e5, 1e5 + 0.1, 1e5 + 0.2), whose residual -1.455e-11 is the
    rounding of its decimal inputs, is linear.
    """

    satisfies_recurrence: bool
    lam: float | None
    mu: float | None
    residual: tuple[float, ...]

    def reconstruct(self, length: int) -> np.ndarray:
        if not self.satisfies_recurrence:
            raise BadParameter("weights are not in span{1, k}")
        return np.array([self.lam + self.mu * k for k in range(length)])


def classify_beta(beta: Sequence[float]) -> BetaClassification:
    """Test whether beta is (up to constants) flat, linear, or neither.

    Any beta of length <= 2 vacuously satisfies the recurrence.  The
    decomposition is lam = beta_0, mu = beta_1 - beta_0.  BadParameter
    refuses a weight that is not finite, which would make the tolerance inf.
    """
    beta = _weights(beta)
    residual = tuple(beta[k + 1] - 2.0 * beta[k] + beta[k - 1]
                     for k in range(1, len(beta) - 1))
    tol = SECOND_DIFFERENCE_TOL * max(1.0, max(map(abs, beta), default=0.0))
    ok = all(abs(r) <= tol for r in residual)
    if ok:
        lam = beta[0] if beta else 0.0
        mu = (beta[1] - beta[0]) if len(beta) >= 2 else 0.0
        return BetaClassification(True, lam, mu, residual)
    return BetaClassification(False, None, None, residual)
