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

import heapq
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .complexes import TwistedComplex
from .errors import BadParameter, NotAcyclic, NumericalLimit, ShapeMismatch, StepTooLarge
from .hodge import ChainMetric, factorize

SECOND_DIFFERENCE_TOL = 1e-12
RANK_TOL = 1e-10


def generalized_log_torsion(tr_logs: Sequence[float], beta: Sequence[float]) -> float:
    """1/2 * sum_k (-1)^(k+1) beta_k * t_k, linear in both arguments."""
    if len(tr_logs) != len(beta):
        raise ShapeMismatch(
            f"got {len(tr_logs)} traces but {len(beta)} weights")
    return 0.5 * sum((-1.0) ** (k + 1) * b * t
                     for k, (t, b) in enumerate(zip(tr_logs, beta)))


def log_reidemeister(cplx: TwistedComplex, metric: ChainMetric | None = None) -> float:
    """Log torsion via the Laplacian character formula with beta_k = k.

    Requires an acyclic complex (all twisted Betti numbers zero).  With the
    identity metric the value matches the minor oracle and does not depend
    on the CW model of the pair; a metric deformation shifts it by exactly
    1/2 sum_k (-1)^(k+1) log det h_k (the covariance the variation module
    differentiates).  Every tr log L_k comes from one SVD per boundary map
    (hodge.Factorization.tr_logs).
    """
    return generalized_log_torsion(factorize(cplx, metric).tr_logs,
                                   [float(k) for k in range(cplx.dimension + 1)])


def determinant_oracle(cplx: TwistedComplex) -> float:
    """Log torsion as an alternating sum of log|det| of boundary minors.

    Processing degrees from the top down, full-pivot elimination on the
    columns still in play selects pivot rows whose complement forms the
    column set for the next degree; the minor of bd_k built this way gets
    exponent (-1)^(k+1).  Metric-free and independent of the Laplacian
    route.

    The elimination is also the acyclicity test; no rank is computed
    elsewhere.  In exact arithmetic bd_n has full column rank iff H_n = 0,
    bd_k (k < n) on the complement of the pivot rows of degree k + 1 has
    full column rank iff H_k = 0, and H_0 = 0 iff no row is left at degree 0.
    So a pivot |pivot| <= RANK_TOL * scale in degree k, or a row left at
    degree 0, raises NotAcyclic naming the degree: the complex is not
    acyclic, or not to within the pivot threshold.  An update that
    overflows (bd_1 = [[1e308, 1e308], [-1e308, 1e308]], log|det| about
    1419.06) raises NumericalLimit naming the degree, not inf.

    Elimination (_full_pivot_logdet) pivots on the largest |entry| still
    live, the first in row-major order on ties, keeping the largest |entry|
    of every live row in `rowmax` and its rows sparse; a step updates only
    the rows R nonzero in the pivot column and puts back on its heap only
    the rows C of R whose maximum changed, so it costs
    O(|R| * (nnz(pivot row) + nnz(row)) + |C| log n_rows), and the
    elimination's own memory is O(nnz).  Each minor's entries come straight
    from the complex's blocks (TwistedComplex.entries), O(nnz log nnz); no
    dense matrix is formed.
    """
    dims = cplx.dims
    log_tau = 0.0
    live = np.ones(dims[-1], dtype=bool)  # the columns still in play
    for k in range(cplx.dimension, 0, -1):
        rows, cols, values = cplx.entries(k)
        keep = live[cols]
        minor_col = np.cumsum(live) - 1  # a live column's index within the minor
        pivot_rows, log_det = _full_pivot_logdet(
            (dims[k - 1], int(np.count_nonzero(live))),
            rows[keep], minor_col[cols[keep]], values[keep], k)
        log_tau += ((-1.0) ** (k + 1)) * log_det
        live = np.ones(dims[k - 1], dtype=bool)
        live[pivot_rows] = False
    if live.any():
        raise NotAcyclic(f"not acyclic in degree 0: {int(live.sum())} rows left unpivoted")
    return log_tau


def _full_pivot_logdet(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
                       values: np.ndarray, degree: int) -> tuple[list[int], float]:
    """Pivot rows and sum of log|pivot| from full-pivot elimination.

    The matrix has the given shape and its nonzero entries values[i] at
    (rows[i], cols[i]), finite and in row-major order.  The selected rows
    index an invertible minor whose |det| is the product of the pivots.
    Each step pivots on the entry of largest modulus among the rows and
    columns not yet pivoted, the first in row-major order on ties (most
    boundary entries are +-1).  Fewer rows than columns, or a pivot at most
    RANK_TOL * max|entry|, raises NotAcyclic naming `degree`, and an update
    that makes a row's maximum inf raises NumericalLimit naming it.

    The live submatrix is held sparse: `entries[r]` maps column -> value for
    the nonzeros of row r, `in_col[c]` is the set of live rows nonzero in
    column c, and rowmax[r] is the largest modulus in row r (0 when empty).
    A heap of (-rowmax[r], r), with entries dropped once stale, yields the
    first argmax of rowmax.  An update pushes row r only when it changes
    rowmax[r]: an unchanged maximum's entry is still on the heap, valid
    until popped, and a valid pop pivots its row.  The popped key gives the
    pivot's modulus m, and the smallest column holding m or -m makes the
    row-major-first maximum.  The update a - (b / pivot) * p touches only
    R = in_col[pivot column], the rows nonzero there: any other entry would
    change by exactly +-0, so pivots and log|det| are those of eliminating
    the whole remaining submatrix.  An entry that cancels to exactly 0
    leaves its row and column.  A step costs
    O(|R| * (nnz(pivot row) + nnz(row)) + |C| log n_rows), C the rows of R
    whose maximum changed (a heap entry is popped at most once), and the
    elimination's own memory is O(nnz); on the boundary complexes
    determinant_oracle sees, rows hold at most a few nonzeros and R stays
    short.  A dense matrix fills in, and there a step costs O(|R| * n_cols)
    Python operations, far slower than a numpy row update.
    """
    n_rows, n_cols = shape
    if n_cols == 0:
        return [], 0.0
    if n_rows < n_cols:
        raise NotAcyclic(f"not acyclic in degree {degree}: {n_cols} columns, {n_rows} rows")
    rowmax_arr = np.zeros(n_rows)
    np.maximum.at(rowmax_arr, rows, np.abs(values))
    scale = max(float(np.max(rowmax_arr)), np.finfo(float).tiny)
    rowmax = rowmax_arr.tolist()
    entries: list[dict[int, float]] = [{} for _ in range(n_rows)]
    in_col: list[set[int]] = [set() for _ in range(n_cols)]
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        entries[r][c] = v
        in_col[c].add(r)
    heap = [(-m, r) for r, m in enumerate(rowmax)]
    heapq.heapify(heap)
    pivot_rows: list[int] = []
    log_det = 0.0
    for _ in range(n_cols):
        neg_max, piv_row = heapq.heappop(heap)
        while rowmax[piv_row] != -neg_max:
            neg_max, piv_row = heapq.heappop(heap)
        m = -neg_max  # the pivot's modulus
        if m <= RANK_TOL * scale:
            raise NotAcyclic(
                f"not acyclic in degree {degree}: pivot {m:.3e} is "
                f"{m / scale:.3e} of scale {scale:.3e}, at or below {RANK_TOL:.0e}")
        pivot = entries[piv_row]
        piv_col = n_cols  # the smallest column holding m or -m
        for c, v in pivot.items():
            if c < piv_col and (v == m or v == -m):
                piv_col = c
        log_det += math.log(m)
        pivot_rows.append(piv_row)
        rowmax[piv_row] = -1.0
        for c in pivot:
            in_col[c].discard(piv_row)
        piv = pivot.pop(piv_col)
        for r in in_col[piv_col]:
            row = entries[r]
            factor = row.pop(piv_col) / piv
            for c, p in pivot.items():
                a = row.get(c, 0.0) - factor * p
                if a == 0.0:
                    if row.pop(c, None) is not None:
                        in_col[c].discard(r)
                else:
                    row[c] = a
                    in_col[c].add(r)
            new_max = max(map(abs, row.values()), default=0.0)
            if new_max != rowmax[r]:  # an unchanged maximum keeps its valid heap entry
                if not math.isfinite(new_max):  # inf: a NaN needs an inf refused before
                    raise NumericalLimit(f"minor oracle in degree {degree}: an elimination step "
                                         f"overflows the float range (entries up to {scale:.3e})")
                rowmax[r] = new_max
                heapq.heappush(heap, (-new_max, r))
        in_col[piv_col] = set()
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


class BetaClassification(NamedTuple):
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
            raise BadParameter("weights are not in span{1, k}")
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
# Along a path of metrics h_k(u), with alpha_k := h_k^{-1} dh_k/du,
# P_k = L_k^{-1} (acyclic case) and gamma_k := tr(P_k delta_k d_k alpha_k),
# the derivative of twice the weighted log torsion telescopes to
#
#   sum_k (-1)^(k+1) beta_k [tr alpha_k + tr alpha_{k+1}
#                            - gamma_{k+1} - 2 gamma_k - gamma_{k-1}],
#
# with gamma and alpha indices outside 0..n read as zero.  This is exact in
# finite dimensions; the check below only carries the O(step^2) error of the
# central differences.


class VariationReport(NamedTuple):
    """Measured two-sided comparison of the variation identity at one step."""

    gammas: tuple[float, ...]
    tr_alphas: tuple[float, ...]
    lhs: float
    rhs: float
    discrepancy: float
    step: float
    halved_discrepancy: float | None = None

    @property
    def convergence_ratio(self) -> float | None:
        if self.halved_discrepancy is None or self.halved_discrepancy == 0.0:
            return None
        return self.discrepancy / self.halved_discrepancy


MetricPath = Callable[[float], ChainMetric]


def exponential_metric_path(generators: Sequence[np.ndarray]) -> MetricPath:
    """u -> h_k(u) = exp(u S_k) for the symmetrized generators S_k, from one eigh
    per degree taken here: every h(u) is on that one eigenbasis."""
    eighs = ChainMetric._generator_eighs([np.array(s, dtype=float) for s in generators])

    def path(u: float) -> ChainMetric:
        return ChainMetric._exponential(eighs, u)

    return path


def variation_check(cplx: TwistedComplex, path: MetricPath, beta: Sequence[float],
                    step: float = 1e-4, check_convergence: bool = True) -> VariationReport:
    """Compare d/du of 2*log T against the telescoped trace sum at u = 0.

    The derivative of the metric and of 2*log T are both central differences
    with the given step, so the two sides agree to O(step^2).  With
    check_convergence=True the two sides are compared again at step/2 and a
    StepTooLarge error is raised unless the discrepancy shrinks roughly
    quadratically (or is already at rounding level).  BadParameter refuses a
    step that is not a finite number > 0.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise BadParameter(f"step must be a finite number > 0, got {step!r}")
    n = cplx.dimension
    beta = [float(x) for x in beta]
    # path(0) and its coclosed eigenvectors serve both steps
    h0 = path(0.0)
    fac = factorize(cplx, h0)
    coclosed = [fac.coclosed(k) for k in range(n)]
    report = _variation_single(cplx, path, beta, step, h0, coclosed)
    if not check_convergence:
        return report
    halved = _variation_single(cplx, path, beta, step / 2.0, h0, coclosed)
    floor = 1e-10 * max(1.0, abs(report.lhs))
    if report.discrepancy > floor and halved.discrepancy > 0.0:
        ratio = report.discrepancy / halved.discrepancy
        # quadratic convergence halves to ~1/4; a kink halves to only ~1/2
        if ratio < 2.5:
            raise StepTooLarge(
                f"discrepancy fell only {ratio:.2f}x when halving step {step:g}")
    return report._replace(halved_discrepancy=halved.discrepancy)


def _variation_single(cplx: TwistedComplex, path: MetricPath, beta: Sequence[float],
                      step: float, h0: ChainMetric, coclosed: Sequence[np.ndarray]):
    """Both sides at one step, the alpha_k taken at h0 = path(0); coclosed[k]
    are h0's coclosed vectors (k < n)."""
    hp, hm = path(step), path(-step)
    # 2 log T on either side; this raises NotAcyclic, so P_k = L_k^{-1} below
    lhs = (2.0 * generalized_log_torsion(factorize(cplx, hp).tr_logs, beta)
           - 2.0 * generalized_log_torsion(factorize(cplx, hm).tr_logs, beta)) / (2.0 * step)

    hdots = [(hp.matrix(k) - hm.matrix(k)) / (2.0 * step) for k in range(len(beta))]
    alphas = [h0.inv(k) @ hdot for k, hdot in enumerate(hdots)]
    # P_k delta_k d_k is the h_k-orthogonal projector onto im delta_k, spanned
    # by the coclosed eigenvectors v_i of L_k, so gamma_k = sum_i v_i^T dh_k/du v_i;
    # gamma_n = 0 as delta_n d_n vanishes.  g[j + 1] and a[j + 1] hold degree j,
    # and the zeros at either end stand for the degrees outside 0..n.
    g = [0.0] + [float(np.sum(v * (hdot @ v))) for v, hdot in zip(coclosed, hdots)] + [0.0, 0.0]
    a = [0.0] + [float(np.trace(alpha)) for alpha in alphas] + [0.0]
    rhs = sum((-1.0) ** (k + 1) * b_k
              * (a[k + 1] + a[k + 2] - g[k + 2] - 2.0 * g[k + 1] - g[k])
              for k, b_k in enumerate(beta))
    return VariationReport(
        gammas=tuple(g[1:-1]), tr_alphas=tuple(a[1:-1]), lhs=float(lhs),
        rhs=float(rhs), discrepancy=abs(float(lhs) - float(rhs)), step=step)
