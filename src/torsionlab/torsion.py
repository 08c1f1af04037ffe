"""Torsion of acyclic twisted complexes and the metric-variation identity.

Two independent routes to the log torsion of an acyclic based complex:

* the Laplacian character formula
      log T = 1/2 * sum_k (-1)^(k+1) k tr log L_k,
  generalized to arbitrary degree weights beta_k; and

* an alternating product of boundary minors chosen by Gaussian
  elimination (determinant_oracle), which never builds a Laplacian.

The variation machinery differentiates tr log L_k along a path of chain
metrics h_k(u) and checks the exact finite-dimensional telescoping
identity; see variation_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .complexes import TwistedComplex
from .errors import NotAcyclic, PivotFailure, ShapeMismatch, StepTooLarge
from .hodge import (
    ChainMetric,
    acyclic_spectra,
    coboundary,
    factorize,
    laplacian,
    metric_adjoint,
    sym_expm,
)

SECOND_DIFFERENCE_TOL = 1e-12
RANK_TOL = 1e-10


def generalized_log_torsion(tr_logs: Sequence[float], beta: Sequence[float]) -> float:
    """1/2 * sum_k (-1)^(k+1) beta_k * t_k, linear in both arguments."""
    if len(tr_logs) != len(beta):
        raise ShapeMismatch(
            f"got {len(tr_logs)} traces but {len(beta)} weights")
    return 0.5 * sum((-1.0) ** (k + 1) * b * t
                     for k, (t, b) in enumerate(zip(tr_logs, beta)))


def _weighted_log_torsion(cplx: TwistedComplex, metric: ChainMetric | None,
                          beta: Sequence[float]) -> float:
    tr_logs = [float(np.sum(np.log(lam))) for lam in acyclic_spectra(cplx, metric)]
    return generalized_log_torsion(tr_logs, beta)


def log_reidemeister(cplx: TwistedComplex, metric: ChainMetric | None = None) -> float:
    """Log torsion via the Laplacian character formula with beta_k = k.

    Requires an acyclic complex (all twisted Betti numbers zero).  With the
    identity metric the value matches the minor oracle and does not depend
    on the CW model of the pair; a metric deformation shifts it by exactly
    1/2 sum_k (-1)^(k+1) log det h_k (the covariance the variation module
    differentiates).  Every tr log L_k comes from one SVD per boundary map
    (hodge.positive_spectra).
    """
    return _weighted_log_torsion(cplx, metric, [float(k) for k in range(cplx.dimension + 1)])


def determinant_oracle(cplx: TwistedComplex) -> float:
    """Log torsion as an alternating sum of log|det| of boundary minors.

    Processing degrees from the top down, full-pivot elimination on the
    columns still in play selects pivot rows whose complement forms the
    column set for the next degree; the minor of bd_k built this way gets
    exponent (-1)^(k+1).  Metric-free and independent of the Laplacian
    route.  Raises NotAcyclic when the boundary ranks do not chain exactly,
    PivotFailure if elimination degenerates despite consistent ranks.

    The ranks come from np.linalg.matrix_rank, the rule hodge uses for
    Betti numbers; on large boundary maps that SVD is most of the cost.
    Elimination (_full_pivot_logdet) pivots on the largest |entry| still
    live, the first in row-major order on ties, keeping the largest |entry|
    of every live row in `rowmax`; a step updates only the rows R nonzero in
    the pivot column, so it costs O(n_rows + |R| * n_cols).
    """
    dims = cplx.dims
    n = cplx.dimension
    ranks = [0] * (n + 2)
    for k in range(1, n + 1):
        b = cplx.boundary(k)
        ranks[k] = int(np.linalg.matrix_rank(b)) if b.size else 0
    for k in range(0, n + 1):
        if ranks[k] + ranks[k + 1] != dims[k]:
            raise NotAcyclic(
                f"rank defect in degree {k}: {ranks[k]} + {ranks[k + 1]} != {dims[k]}")

    log_tau = 0.0
    columns = list(range(dims[n]))
    for k in range(n, 0, -1):
        mat = cplx.boundary(k)[:, columns]
        pivot_rows, log_det = _full_pivot_logdet(mat)
        log_tau += ((-1.0) ** (k + 1)) * log_det
        taken = set(pivot_rows)
        columns = [i for i in range(dims[k - 1]) if i not in taken]
    if columns:
        raise PivotFailure("rows left unpivoted at degree 0")
    return log_tau


def _full_pivot_logdet(mat: np.ndarray) -> tuple[list[int], float]:
    """Pivot rows and sum of log|pivot| from full-pivot elimination.

    `mat` must have full column rank; the selected rows index an invertible
    minor whose |det| is the product of the pivots.  Each step pivots on the
    entry of largest modulus among the rows and columns not yet pivoted,
    the first in row-major order on ties (most boundary entries are +-1).

    A pivoted row and column are zeroed once eliminated, and rowmax[r] holds
    max |work[r, :]|, the largest modulus over the live columns, for every
    live row (-1 once r is pivoted).  The first argmax of rowmax, then the
    first argmax of that row, is therefore the row-major-first maximum.  The
    rank-1 update touches only R, the rows nonzero in the pivot column: any
    other entry would change by exactly +-0, so pivots and log|det| are those
    of eliminating the whole remaining submatrix.  Only the rows of R need a
    new rowmax.  A step costs O(n_rows + |R| * n_cols), not a pass over the
    remaining submatrix; a boundary column has at most 4 * rank nonzeros, so
    R stays short on the complexes determinant_oracle sees.
    """
    work = np.array(mat, dtype=float)
    n_cols = work.shape[1]
    if n_cols == 0:
        return [], 0.0
    rowmax = np.max(np.abs(work), axis=1)
    scale = max(float(np.max(rowmax)), np.finfo(float).tiny)
    pivot_rows: list[int] = []
    log_det = 0.0
    for _ in range(n_cols):
        piv_row = int(np.argmax(rowmax))
        pivot = work[piv_row]
        piv_col = int(np.argmax(np.abs(pivot)))
        piv = pivot[piv_col]
        if abs(piv) <= RANK_TOL * scale:
            raise PivotFailure(f"pivot {abs(piv):.3e} below threshold")
        log_det += math.log(abs(piv))
        pivot_rows.append(piv_row)
        rows = np.flatnonzero(work[:, piv_col])
        rows = rows[rows != piv_row]
        block = work[rows]
        block -= np.outer(block[:, piv_col] / piv, pivot)
        block[:, piv_col] = 0.0
        work[rows] = block
        work[piv_row] = 0.0
        rowmax[rows] = np.max(np.abs(block), axis=1)
        rowmax[piv_row] = -1.0
    return pivot_rows, log_det


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


@dataclass(frozen=True)
class BetaClassification:
    """Outcome of the second-difference test on a degree-weight vector.

    satisfies_recurrence means beta_{k+1} - 2 beta_k + beta_{k-1} = 0 for
    all interior k, i.e. beta = lam * (1,...,1) + mu * (0,1,...,n).
    """

    satisfies_recurrence: bool
    lam: float | None
    mu: float | None
    residual: tuple[float, ...]

    def reconstruct(self, length: int) -> np.ndarray:
        if not self.satisfies_recurrence:
            raise ValueError("weights are not in span{1, k}")
        return np.array([self.lam + self.mu * k for k in range(length)])


def classify_beta(beta: Sequence[float]) -> BetaClassification:
    """Test whether beta is (up to constants) flat, linear, or neither.

    Any beta of length <= 2 vacuously satisfies the recurrence.  The
    decomposition is lam = beta_0, mu = beta_1 - beta_0.
    """
    beta = [float(x) for x in beta]
    residual = tuple(beta[k + 1] - 2.0 * beta[k] + beta[k - 1]
                     for k in range(1, len(beta) - 1))
    ok = all(abs(r) <= SECOND_DIFFERENCE_TOL for r in residual)
    if ok:
        lam = beta[0] if beta else 0.0
        mu = (beta[1] - beta[0]) if len(beta) >= 2 else 0.0
        return BetaClassification(True, lam, mu, residual)
    return BetaClassification(False, None, None, residual)


# --- metric variation -------------------------------------------------------
#
# Along a path of metrics h_k(u), with alpha_k := h_k^{-1} dh_k/du and
# P_k = L_k^{-1} (acyclic case), the derivative of the Laplacian is exactly
#
#   dL_k/du = -alpha_k delta_k d_k + delta_k alpha_{k+1} d_k
#             - d_{k-1} alpha_{k-1} delta_{k-1} + d_{k-1} delta_{k-1} alpha_k
#
# and with gamma_k := tr(P_k delta_k d_k alpha_k) the derivative of twice the
# weighted log torsion telescopes to
#
#   sum_k (-1)^(k+1) beta_k [tr alpha_k + tr alpha_{k+1}
#                            - gamma_{k+1} - 2 gamma_k - gamma_{k-1}],
#
# with gamma and alpha indices outside 0..n read as zero.  Both statements
# are exact in finite dimensions; the checks below only carry the O(step^2)
# error of the central differences.


@dataclass(frozen=True)
class VariationReport:
    """Measured two-sided comparison of the variation identity at one step."""

    gammas: tuple[float, ...]
    tr_alphas: tuple[float, ...]
    lhs: float
    rhs: float
    discrepancy: float
    laplacian_dot_residual: float
    step: float
    halved_discrepancy: float | None = None

    @property
    def convergence_ratio(self) -> float | None:
        if self.halved_discrepancy is None or self.halved_discrepancy == 0.0:
            return None
        return self.discrepancy / self.halved_discrepancy


MetricPath = Callable[[float], ChainMetric]


def exponential_metric_path(generators: Sequence[np.ndarray]) -> MetricPath:
    """u -> ChainMetric(exp(u * S_k)) for symmetric generators S_k."""
    gens = [0.5 * (np.asarray(s, dtype=float) + np.asarray(s, dtype=float).T)
            for s in generators]

    def path(u: float) -> ChainMetric:
        return ChainMetric([sym_expm(u * s) for s in gens])

    return path


def variation_check(cplx: TwistedComplex, path: MetricPath, beta: Sequence[float],
                    u0: float = 0.0, step: float = 1e-4,
                    check_convergence: bool = True) -> VariationReport:
    """Compare d/du of 2*log T against the telescoped trace sum at u0.

    The derivative of the metric and of 2*log T are both central differences
    with the given step, so the two sides agree to O(step^2).  With
    check_convergence=True the comparison is repeated at step/2 and a
    StepTooLarge error is raised unless the discrepancy shrinks roughly
    quadratically (or is already at rounding level).
    """
    n = cplx.dimension
    beta = [float(x) for x in beta]
    if len(beta) != n + 1:
        raise ShapeMismatch(f"expected {n + 1} weights, got {len(beta)}")
    report = _variation_single(cplx, path, beta, u0, step)
    if not check_convergence:
        return report
    halved = _variation_single(cplx, path, beta, u0, step / 2.0)
    floor = 1e-10 * max(1.0, abs(report.lhs))
    if report.discrepancy > floor and halved.discrepancy > 0.0:
        ratio = report.discrepancy / halved.discrepancy
        # quadratic convergence halves to ~1/4; a kink halves to only ~1/2
        if ratio < 2.5:
            raise StepTooLarge(
                f"discrepancy fell only {ratio:.2f}x when halving step {step:g}")
    return VariationReport(
        gammas=report.gammas, tr_alphas=report.tr_alphas, lhs=report.lhs,
        rhs=report.rhs, discrepancy=report.discrepancy,
        laplacian_dot_residual=report.laplacian_dot_residual, step=step,
        halved_discrepancy=halved.discrepancy)


def _variation_single(cplx: TwistedComplex, path: MetricPath, beta: Sequence[float],
                      u0: float, step: float) -> VariationReport:
    n = cplx.dimension
    h0, hp, hm = path(u0), path(u0 + step), path(u0 - step)
    # 2 log T on either side; this raises NotAcyclic, so P_k = L_k^{-1} below
    lhs = (2.0 * _weighted_log_torsion(cplx, hp, beta)
           - 2.0 * _weighted_log_torsion(cplx, hm, beta)) / (2.0 * step)

    hdots = [(hp.matrix(k) - hm.matrix(k)) / (2.0 * step) for k in range(n + 1)]
    alphas = [h0.inv(k) @ hdot for k, hdot in enumerate(hdots)]
    tr_alphas = [float(np.trace(alpha)) for alpha in alphas]
    # P_k delta_k d_k is the h_k-orthogonal projector onto im delta_k, spanned
    # by the coclosed eigenvectors v_i of L_k, so gamma_k = sum_i v_i^T dh_k/du v_i
    fac = factorize(cplx, h0)
    gammas = []
    for k in range(n):
        _, vectors, n_closed = fac.eigenpairs(k)
        coclosed = vectors[:, n_closed:]
        gammas.append(float(np.sum(coclosed * (hdots[k] @ coclosed))))
    gammas.append(0.0)  # delta_n d_n vanishes in the top degree

    def gamma(j: int) -> float:
        return gammas[j] if 0 <= j <= n else 0.0

    def tr_alpha(j: int) -> float:
        return tr_alphas[j] if 0 <= j <= n else 0.0

    rhs = sum((-1.0) ** (k + 1) * beta[k]
              * (tr_alpha(k) + tr_alpha(k + 1)
                 - gamma(k + 1) - 2.0 * gamma(k) - gamma(k - 1))
              for k in range(n + 1))

    ddot_residual = 0.0
    for k in range(n + 1):
        lap_dot_fd = (laplacian(cplx, hp, k) - laplacian(cplx, hm, k)) / (2.0 * step)
        formula = np.zeros_like(lap_dot_fd)
        if k < n:
            d_k = coboundary(cplx, k)
            delta_k = metric_adjoint(cplx, h0, k)
            formula += -alphas[k] @ delta_k @ d_k + delta_k @ alphas[k + 1] @ d_k
        if k > 0:
            d_km1 = coboundary(cplx, k - 1)
            delta_km1 = metric_adjoint(cplx, h0, k - 1)
            formula += (-d_km1 @ alphas[k - 1] @ delta_km1
                        + d_km1 @ delta_km1 @ alphas[k])
        denom = max(1.0, float(np.max(np.abs(lap_dot_fd))) if lap_dot_fd.size else 0.0)
        diff = float(np.max(np.abs(lap_dot_fd - formula))) if lap_dot_fd.size else 0.0
        ddot_residual = max(ddot_residual, diff / denom)

    return VariationReport(
        gammas=tuple(gammas), tr_alphas=tuple(tr_alphas), lhs=float(lhs),
        rhs=float(rhs), discrepancy=abs(float(lhs) - float(rhs)),
        laplacian_dot_residual=ddot_residual, step=step)


# --- symbolic telescoping ---------------------------------------------------


def telescoping_coefficient_table(n: int) -> dict[int, dict[int, int]]:
    """Coefficient of gamma_j as an integer combination of the beta_i.

    Expands sum_{k=0}^n (-1)^(k+1) beta_k (-gamma_{k+1} - 2 gamma_k
    - gamma_{k-1}) with gamma indices outside 0..n dropped; the result maps
    j -> {i: coefficient of beta_i}.
    """
    table: dict[int, dict[int, int]] = {j: {} for j in range(n + 1)}

    def add(j: int, i: int, value: int) -> None:
        if 0 <= j <= n:
            table[j][i] = table[j].get(i, 0) + value
            if table[j][i] == 0:
                del table[j][i]

    for k in range(n + 1):
        sign = (-1) ** (k + 1)
        add(k + 1, k, -sign)
        add(k, k, -2 * sign)
        add(k - 1, k, -sign)
    return table


def second_difference_table(n: int) -> dict[int, dict[int, int]]:
    """Expected gamma coefficients: (-1)^(j+1) (beta_{j+1} - 2 beta_j + beta_{j-1}).

    Out-of-range beta indices are read as zero, so the boundary rows j = 0
    and j = n carry the truncated stencils (2 beta_0 - beta_1) and
    (-1)^(n+1) * (beta_{n+1 dropped} - 2 beta_n + beta_{n-1}).
    """
    table: dict[int, dict[int, int]] = {}
    for j in range(n + 1):
        sign = (-1) ** (j + 1)
        row: dict[int, int] = {}
        for i, coeff in ((j + 1, 1), (j, -2), (j - 1, 1)):
            if 0 <= i <= n:
                row[i] = row.get(i, 0) + sign * coeff
        table[j] = {i: c for i, c in row.items() if c != 0}
    return table


def telescoping_identity_holds(n: int) -> bool:
    """Exact integer check that the expansion matches the second-difference stencil."""
    return telescoping_coefficient_table(n) == second_difference_table(n)
