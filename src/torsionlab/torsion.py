"""Torsion of acyclic twisted complexes and the metric-variation identity.

Two independent routes to the log torsion of an acyclic based complex:

* the Laplacian character formula
      log T = 1/2 * sum_k (-1)^(k+1) k tr log L_k,
  the beta_k = k case of weights.generalized_log_torsion; and

* an alternating product of boundary minors chosen by Gaussian
  elimination (determinant_oracle), which never builds a Laplacian.

variation_check checks the exact telescoping identity for d/du 2 log T at
u = 0 along a path of chain metrics from h(0) = I, both sides read exactly
off the path's stated tangent and one full SVD per boundary map.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple, Sequence

import numpy as np

from .complexes import TwistedComplex
from .errors import BadParameter, NotAcyclic, NumericalLimit, ShapeMismatch, _real_array
# exponential_metric_path is named here too, for the callers of variation_check
from .hodge import (ChainMetric, MetricPath, _boundaries, _singular_triples,
                    exponential_metric_path, factorize)
from .weights import _require_acyclic, _weights, generalized_log_torsion

RANK_TOL = 1e-10


def log_reidemeister(cplx: TwistedComplex, metric: ChainMetric | None = None) -> float:
    """Log torsion via the Laplacian character formula with beta_k = k.

    Requires an acyclic complex (all twisted Betti numbers zero).  With the
    identity metric the value matches the minor oracle and does not depend
    on the CW model of the pair; a metric deformation shifts it by exactly
    1/2 sum_k (-1)^(k+1) log det h_k (the covariance the variation module
    differentiates).  Every tr log L_k comes from one SVD per boundary map
    (hodge.Factorization.tr_logs).
    """
    return generalized_log_torsion(factorize(cplx, metric).tr_logs, range(cplx.dimension + 1))


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
    live, the smallest row and then column on ties, keeping the largest
    |entry| of every live row in `rowmax` and its rows sparse; rows wait in
    one heap of indices per distinct maximum.  A step updates only the live
    rows of R, the rows listed in the pivot column (a pivoted row stays
    listed and is skipped), and queues again only the rows C of R whose
    maximum changed, so it costs O(|R| * (nnz(pivot row) + nnz(row)) +
    |C| log n_rows), and its own memory is O(nnz).  Each minor is read in
    place from the complex's blocks, O(nnz); no dense matrix is formed.
    """
    dims, n = cplx.dims, cplx.rank
    log_tau = 0.0
    live = np.ones(dims[-1], dtype=bool)  # the columns still in play
    for k in range(cplx.dimension, 0, -1):
        block_rows, block_cols, blocks = cplx.blocks[k - 1]
        # blocks[m, i, j] is entry (block_rows[m]*n + i, block_cols[m]*n + j) of bd_k
        rows = np.repeat(block_rows[:, None] * n + np.arange(n), n)
        cols = np.tile(block_cols[:, None] * n + np.arange(n), n).ravel()
        values = blocks.ravel()
        keep = (values != 0.0) & live[cols]
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
    (rows[i], cols[i]), finite, each position once, in any order.  The
    selected rows index an invertible minor whose |det| is the product of
    the pivots.  Each step pivots on the entry of largest modulus among the
    rows and columns not yet pivoted, the smallest row and then column on
    ties (most boundary entries are +-1).  Fewer rows than columns, or a
    pivot at most RANK_TOL * max|entry|, raises NotAcyclic naming `degree`,
    and an update making a row's maximum inf raises NumericalLimit.

    The live submatrix is held sparse: `entries[r]` maps column -> value for
    the nonzeros of row r, `in_col[c]` holds the rows nonzero in column c
    (a pivoted row stays there, skipped by its rowmax of -1), and rowmax[r]
    is the largest modulus in live row r (0 when empty).  Each distinct
    maximum m has a heap of row indices, queues[m]; `levels` is a heap of
    the other maxima, negated, and the highest one is held in `top` and
    `top_q`.  Every live row r has an entry in queues[rowmax[r]], and an
    entry is valid while rowmax[r] equals its level, so the first valid pop
    from the highest level is the first argmax of rowmax: the largest
    maximum, then the smallest row.  An update queues row r again only
    when it changes rowmax[r]: an unchanged maximum's entry is still
    queued, valid until popped, and a valid pop pivots its row.  A level
    whose queue runs empty leaves `queues` when the search passes it; it
    can lie under a higher level that appeared since, so the search skips
    every empty queue it meets.  The level gives the pivot's modulus m, and
    the pivot column is the smallest in that row holding m or -m; no input
    order is read.  The update a - (b / pivot) * p touches only the live
    rows of R = in_col[pivot column], the rows nonzero there: any other
    entry would change by exactly +-0, so pivots and log|det| are those of
    eliminating the whole remaining submatrix.  A column absent from a row takes
    0.0 - (b / pivot) * p, the same bits, and an entry that cancels to
    exactly 0 leaves its row and column.  A step costs
    O(|R| * (nnz(pivot row) + nnz(row)) + |C| log n_rows), C the rows of R
    whose maximum changed (a queued entry is popped at most once), and the
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
    heappop, heappush, log = heapq.heappop, heapq.heappush, math.log
    threshold = RANK_TOL * scale
    queues: dict[float, list[int]] = {}  # maximum -> heap of the rows holding it
    for r, m in enumerate(rowmax):
        queues.setdefault(m, []).append(r)  # ascending, so already a heap
    levels = [-m for m in queues]  # the other levels, negated
    heapq.heapify(levels)
    top = -heappop(levels)
    top_q = queues[top]
    pivot_rows: list[int] = []
    log_det = 0.0
    for _ in range(n_cols):
        while True:
            while not top_q:  # an emptied level can sit under a higher one that came later
                del queues[top]
                top = -heappop(levels)
                top_q = queues[top]
            piv_row = heappop(top_q)
            if rowmax[piv_row] == top:
                break
        m = top  # the pivot's modulus
        if m <= threshold:
            raise NotAcyclic(
                f"not acyclic in degree {degree}: pivot {m:.3e} is "
                f"{m / scale:.3e} of scale {scale:.3e}, at or below {RANK_TOL:.0e}")
        pivot = entries[piv_row]
        piv_col = n_cols  # the smallest column holding m or -m
        for c, v in pivot.items():
            if c < piv_col and (v == m or v == -m):
                piv_col = c
        log_det += log(m)
        pivot_rows.append(piv_row)
        rowmax[piv_row] = -1.0  # pivoted: skipped wherever in_col still lists it
        piv = pivot.pop(piv_col)
        for r in in_col[piv_col]:
            if rowmax[r] < 0.0:
                continue
            row = entries[r]
            factor = row.pop(piv_col) / piv
            for c, p in pivot.items():
                a = row.get(c)
                if a is None:
                    a = 0.0 - factor * p
                    if a != 0.0:
                        row[c] = a
                        in_col[c].add(r)
                else:
                    a -= factor * p
                    if a == 0.0:
                        del row[c]
                        in_col[c].discard(r)
                    else:
                        row[c] = a
            new_max = max(map(abs, row.values())) if row else 0.0  # cheaper than default=0.0
            if new_max != rowmax[r]:  # an unchanged maximum keeps its valid queue entry
                if not math.isfinite(new_max):  # inf: a NaN needs an inf refused before
                    raise NumericalLimit(f"minor oracle in degree {degree}: an elimination step "
                                         f"overflows the float range (entries up to {scale:.3e})")
                rowmax[r] = new_max
                q = queues.get(new_max)
                if q is not None:
                    heappush(q, r)
                elif new_max < top:
                    queues[new_max] = [r]
                    heappush(levels, -new_max)
                else:  # a new highest level: the old top goes back among the others
                    heappush(levels, -top)
                    top, top_q = new_max, [r]
                    queues[top] = top_q
    return pivot_rows, log_det


# --- metric variation -------------------------------------------------------
#
# Along a path of metrics h_k(u) from h_k(0) = I with tangent S_k at u = 0,
# alpha_k := h_k^{-1} dh_k/du is S_k there.  With P_k = L_k^{-1} (acyclic case)
# and gamma_k := tr(P_k delta_k d_k alpha_k), the derivative of twice the
# weighted log torsion telescopes to
#
#   sum_k (-1)^(k+1) beta_k [tr alpha_k + tr alpha_{k+1}
#                            - gamma_{k+1} - 2 gamma_k - gamma_{k-1}],
#
# with gamma and alpha indices outside 0..n read as zero.  The identity is
# exact in finite dimensions, and so are both sides below.  tr log L_k sums
# log sigma^2 over the singular values of W_k and W_{k+1}, and at constant
# rank d/du sum log sigma(W_k)^2 = 2 tr(W_k^+ dW_k/du) (Golub & Pereyra,
# SIAM J. Numer. Anal. 10, 1973).  At h = I, W_k = bd_k^T and
# dW_k/du = (S_k bd_k^T - bd_k^T S_{k-1}) / 2.  One full SVD per map gives
# W_k^+ = V diag(1 / sigma) U^T and, in V, the coclosed vectors of gamma.


class VariationReport(NamedTuple):
    """The two exact sides of the variation identity at u = 0 and their gap."""

    gammas: tuple[float, ...]
    tr_alphas: tuple[float, ...]
    lhs: float
    rhs: float
    discrepancy: float


def variation_check(cplx: TwistedComplex, path: MetricPath,
                    beta: Sequence[float]) -> VariationReport:
    """Compare d/du of 2*log T against the telescoped trace sum at u = 0.

    path starts at h(0) = I and states its tangent dh_k/du at u = 0 as
    path.tangent, as every path of exponential_metric_path does; only the
    tangent is read.  Both sides are exact, from one full SVD per boundary
    map (its rank through hodge's kernel rule), so they agree to rounding.
    BadParameter refuses a weight that is not a finite real number, and a
    path with no tangent or a tangent entry that is not an integer or a
    float; ShapeMismatch refuses a tangent whose degrees do not match the
    complex, and NotAcyclic a complex with homology.
    """
    n = cplx.dimension
    beta = _weights(beta, n + 1)
    tangent = getattr(path, "tangent", None)
    if tangent is None:
        raise BadParameter(f"metric path must state its tangent at u = 0, "
                           f"got a {type(path).__name__} without one")
    tangent = [_real_array(s, f"metric path tangent in degree {k}", BadParameter)
               for k, s in enumerate(tangent)]
    if [s.shape for s in tangent] != [(d, d) for d in cplx.dims]:
        raise ShapeMismatch("metric path tangent degrees do not match the complex")
    maps = list(_boundaries(cplx))  # dense once per check: the complex keeps none
    triples = _singular_triples(cplx, None, maps)
    ranks = [0, *(sigma.size for _, sigma, _ in triples), 0]
    _require_acyclic([d - ranks[k] - ranks[k + 1] for k, d in enumerate(cplx.dims)])
    # dlog[k] = d/du sum log sigma(W_k)^2 = 2 tr(W_k^+ dW_k/du), zero for the
    # maps outside 1..n; tr log L_k moves by dlog[k] + dlog[k + 1]
    dlog = [0.0]
    for k, (bd, (u, sigma, v)) in enumerate(zip(maps, triples), start=1):
        w_dot = 0.5 * (tangent[k] @ bd.T - bd.T @ tangent[k - 1])
        dlog.append(2.0 * float(np.sum((v / sigma) * (w_dot.T @ u))))
    dlog.append(0.0)
    lhs = sum((-1.0) ** (k + 1) * b_k * (dlog[k] + dlog[k + 1]) for k, b_k in enumerate(beta))
    # P_k delta_k d_k is the projector onto im delta_k, spanned by the coclosed
    # vectors V of degree k (the right singular vectors of W_{k+1}), so
    # gamma_k = tr(V^T S_k V); gamma_n = 0 as delta_n d_n vanishes.  g[j + 1] and
    # a[j + 1] hold degree j, and the zeros at either end the degrees outside 0..n.
    g = ([0.0] + [float(np.sum(v * (s @ v))) for s, (_, _, v) in zip(tangent, triples)]
         + [0.0, 0.0])
    a = [0.0] + [float(np.trace(s)) for s in tangent] + [0.0]
    rhs = sum((-1.0) ** (k + 1) * b_k
              * (a[k + 1] + a[k + 2] - g[k + 2] - 2.0 * g[k + 1] - g[k])
              for k, b_k in enumerate(beta))
    return VariationReport(gammas=tuple(g[1:-1]), tr_alphas=tuple(a[1:-1]), lhs=float(lhs),
                           rhs=float(rhs), discrepancy=abs(float(lhs) - float(rhs)))
