import heapq
import json
import math
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import torsionlab
from torsionlab import (
    preset,
    CellStructure,
    ChainMetric,
    Representation,
    TwistedComplex,
    build_preset,
    build_twisted_boundary,
    classify_beta,
    complex_from_json,
    cyclic_cover,
    determinant_oracle,
    euler_characteristics,
    exponential_metric_path,
    factorize,
    generalized_log_torsion,
    log_reidemeister,
    variation_check,
)
from torsionlab import errors, hodge, torsion, verify
from torsionlab.errors import BadParameter, NotAcyclic, NumericalLimit, ShapeMismatch
from torsionlab.torsion import RANK_TOL, _full_pivot_logdet
from torsionlab.verify import (
    _coboundary,
    _laplacian,
    _laplacian_dot_residual,
    _metric_adjoint,
    _second_difference_table,
    _telescoping_coefficient_table,
    _telescoping_identity_holds,
)


def _cover(name: str, orders: tuple[int, ...], **params) -> TwistedComplex:
    """Preset `name`, with its options, built on its cyclic cover of the given orders."""
    cells, rho = preset(name, **params)
    return build_twisted_boundary(cyclic_cover(cells, orders), rho)


def _reference_full_pivot_logdet(mat, degree=1):
    """Full-pivot elimination over the whole remaining submatrix at every step."""
    work = np.array(mat, dtype=float)
    n_rows, n_cols = work.shape
    if n_cols == 0:
        return [], 0.0
    scale = max(float(np.max(np.abs(work))), np.finfo(float).tiny)
    row_pool = list(range(n_rows))
    col_pool = list(range(n_cols))
    pivot_rows = []
    log_det = 0.0
    for _ in range(n_cols):
        sub = np.abs(work[np.ix_(row_pool, col_pool)])
        i_loc, j_loc = divmod(int(np.argmax(sub)), sub.shape[1])
        piv_row, piv_col = row_pool[i_loc], col_pool[j_loc]
        piv = work[piv_row, piv_col]
        if abs(piv) <= RANK_TOL * scale:
            raise NotAcyclic(
                f"not acyclic in degree {degree}: pivot {abs(piv):.3e} is "
                f"{abs(piv) / scale:.3e} of scale {scale:.3e}, at or below {RANK_TOL:.0e}")
        log_det += math.log(abs(piv))
        pivot_rows.append(piv_row)
        row_pool.remove(piv_row)
        col_pool.remove(piv_col)
        if row_pool and col_pool:
            rows, cols = np.array(row_pool), np.array(col_pool)
            factors = work[rows, piv_col] / piv
            work[np.ix_(rows, cols)] -= np.outer(factors, work[piv_row, cols])
    return pivot_rows, log_det


def _eliminate(mat, degree=1):
    """_full_pivot_logdet on the nonzero entries of a dense matrix, row-major."""
    mat = np.array(mat, dtype=float)
    rows, cols = np.nonzero(mat)
    return _full_pivot_logdet(mat.shape, rows, cols, mat[rows, cols], degree)


def _reference_positive_spectra(cx, metric):
    """One values-only SVD per weighted boundary map, each sigma^2 in two degrees."""
    parts = [[] for _ in cx.dims]
    for k in range(1, cx.dimension + 1):
        w = cx.boundary(k).T
        if not metric.is_identity:
            w = metric.sqrt(k) @ w @ metric.isqrt(k - 1)
        sigma = np.linalg.svd(w, compute_uv=False) if w.size else np.zeros(0)
        cut = sigma[0] * max(w.shape) * np.finfo(float).eps if sigma.size else 0.0
        lam = sigma[sigma > cut] ** 2
        parts[k - 1].append(lam)
        parts[k].append(lam)
    return [np.sort(np.concatenate(p)) if p else np.zeros(0) for p in parts]


def _reference_gammas(cx, path, u0, step):
    """gamma_k = tr(L_k^{-1} delta_k d_k alpha_k) by a linear solve at h(u0)."""
    n = cx.dimension
    h0, hp, hm = path(u0), path(u0 + step), path(u0 - step)
    gammas = []
    for k in range(n + 1):
        alpha = h0.inv(k) @ ((hp.matrix(k) - hm.matrix(k)) / (2.0 * step))
        if k < n:
            up = _metric_adjoint(cx, h0, k) @ _coboundary(cx, k)
            gammas.append(float(np.trace(np.linalg.solve(_laplacian(cx, h0, k), up @ alpha))))
        else:
            gammas.append(0.0)
    return gammas


def _oracle_minors(cx):
    """The boundary minors determinant_oracle eliminates, top degree first."""
    minors = []
    columns = list(range(cx.dims[-1]))
    for k in range(cx.dimension, 0, -1):
        minors.append(cx.boundary(k)[:, columns])
        taken = set(_reference_full_pivot_logdet(minors[-1], k)[0])
        columns = [i for i in range(cx.dims[k - 1]) if i not in taken]
    return minors


def test_elimination_matches_reference_bitwise():
    rng = np.random.default_rng(5)
    mats = []
    for n in (1, 3, 17, 64, 160):
        mats.append(rng.standard_normal((n, n)))  # dense
        mats.append(rng.standard_normal((n + n // 2 + 1, n)))  # tall
        # sparse +-1 with many ties; the shifted diagonal keeps full column rank
        ties = rng.choice([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0], size=(2 * n, n))
        mats.append(ties + 2.0 * np.eye(2 * n, n))
    for theta in (0.4, 2.5):
        for n in (3, 16, 128):
            mats += _oracle_minors(_cover("circle", (n,), theta=theta))
        for n in (2, 5, 9):
            mats += _oracle_minors(_cover("torus2", (n, n), alpha=theta, beta=1.1))
    for mat in mats:
        rows, log_det = _eliminate(mat)
        ref_rows, ref_log_det = _reference_full_pivot_logdet(mat)
        assert rows == ref_rows
        assert log_det == ref_log_det
    # a tie: the first maximum in row-major order is column 0 of row 0, and
    # pivoting on column 2 instead would pick rows [0, 3, 1]
    ties = np.array([[1, -1, 1], [1, -1, 0], [0, -1, 0], [0, 1, 1]], dtype=float)
    assert _eliminate(ties)[0] == _reference_full_pivot_logdet(ties)[0] == [0, 1, 2]


def test_elimination_ignores_entry_order():
    # the smallest row comes from the per-maximum heaps and the smallest column
    # from a scan of the pivot row, so no input order is read: determinant_oracle
    # passes each minor's entries in block order
    rng = np.random.default_rng(11)
    mats = []
    for n in (1, 4, 17, 60):
        mats.append(rng.standard_normal((n, n)))  # dense
        sparse = rng.standard_normal((2 * n, n)) * (rng.random((2 * n, n)) < 0.2)
        mats.append(sparse + np.eye(2 * n, n))
        ties = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], size=(2 * n, n))
        mats.append(ties + 2.0 * np.eye(2 * n, n))
        mats.append(np.column_stack([ties, ties[:, 0]]))  # rank deficient: NotAcyclic
    mats.append(_cover("circle", (256,), theta=2.5).boundary(1))
    mats += _oracle_minors(_cover("torus2", (8, 8), alpha=1.0, beta=0.3))
    refused = 0
    for mat in mats:
        rows, cols = np.nonzero(mat)
        values = mat[rows, cols]
        outcomes = []
        for order in [np.arange(rows.size)] + [rng.permutation(rows.size) for _ in range(5)]:
            try:
                pivot_rows, log_det = _full_pivot_logdet(
                    mat.shape, rows[order], cols[order], values[order], 1)
                outcomes.append((pivot_rows, log_det.hex()))
            except NotAcyclic as exc:
                outcomes.append(str(exc))
        assert outcomes == outcomes[:1] * len(outcomes)
        refused += isinstance(outcomes[0], str)
    assert refused >= 4


@pytest.mark.parametrize("mat, pivot_rows", [
    # row 1 cancels to exactly 0 in column 1 and must leave that column's rows
    ([[1, 1], [1, 1], [0, 1]], [0, 2]),
    # an update leaves rows 1 and 2 tied at rowmax 1: the lower index wins
    ([[2, 0], [1, 1], [1, -1]], [0, 1]),
    # tied from the start, and again after the first step
    ([[0, 1], [1, 0], [1, 1]], [0, 1]),
    # a cancellation to 0 in one column while the other fills in
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0]], [0, 1, 2]),
    # the pivot row's maximum modulus is -2 in column 0, left of +2 in column 1:
    # pivoting on the positive entry would pick rows [1, 2, 0]
    ([[-1, 0, 0], [-2, 2, -1], [0, -1, -1], [0, 1, 1]], [1, 0, 2]),
    # the update leaves row 1's maximum 1 unchanged, so it is not pushed again,
    # while row 2 falls from 1.5 to tie it: the unpushed row 1 wins
    ([[2, 1, 0], [1, 0, 1], [1, 1.5, 0]], [0, 1, 2]),
    # a level's queue is left empty under a higher level that appears in the
    # same step; the pivot search must pass over it, not stop at it
    ([[1, -1, 1, 0], [-1, 0, 2, -2], [0, -1, -1, 1], [-1, -1, 0, 0]], [1, 0, 3, 2]),
])
def test_elimination_sparse_cases(mat, pivot_rows):
    rows, log_det = _eliminate(mat)
    assert (rows, log_det) == _reference_full_pivot_logdet(mat)
    assert rows == pivot_rows


@pytest.mark.parametrize("mat", [
    [[1, 1], [1, 1]],  # row 1 becomes all zero: the next pivot is 0
    [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
    [[0, 0], [0, 0], [0, 0]],  # no nonzero at all: scale is the smallest normal
])
def test_elimination_zero_pivot_message(mat):
    with pytest.raises(NotAcyclic) as ref:
        _reference_full_pivot_logdet(mat, 2)
    with pytest.raises(NotAcyclic) as new:
        _eliminate(mat, 2)
    assert str(new.value) == str(ref.value)
    assert "pivot 0.000e+00 is 0.000e+00" in str(new.value)


def test_elimination_rejects_column_rank_deficiency():
    rng = np.random.default_rng(8)
    for base in (rng.integers(-3, 4, size=(12, 5)).astype(float),
                 rng.standard_normal((40, 30))):
        for extra in (base[:, 2], base[:, 0] - 2.0 * base[:, 4], np.zeros(len(base))):
            mat = np.column_stack([base, extra])
            with pytest.raises(NotAcyclic) as ref:
                _reference_full_pivot_logdet(mat, 3)
            with pytest.raises(NotAcyclic) as new:
                _eliminate(mat, 3)
            assert str(new.value) == str(ref.value)
            assert str(new.value).startswith("not acyclic in degree 3: pivot ")


def test_oracle_refuses_an_overflowing_elimination():
    # log|det| of this bd_1 is log 2 + 616 log 10 (about 1419.06), which a float
    # holds, but the update 1e308 + 1e308 is inf: refused, where it returned inf
    cx = TwistedComplex(1, (2, 2), [[[1e308, 1e308], [-1e308, 1e308]]])
    with pytest.raises(NumericalLimit, match="^minor oracle in degree 1: an elimination step "
                                             "overflows the float range"):
        determinant_oracle(cx)
    # 10^308 R(pi/2) - I: entries near the float maximum whose updates stay finite
    stored = json.loads((Path(__file__).parent / "huge_singular_value.json").read_text())
    assert determinant_oracle(complex_from_json(stored)) == 1418.3924172843322


def test_elimination_pushes_only_changed_maxima(monkeypatch):
    # rows wait in one int heap per distinct maximum, and the maxima in a heap
    # of floats; a row is queued again only when an update changes its
    # maximum, so on the 128-gon every row pop yields a pivot, where queueing
    # every updated row would make 255 row pushes and 507 row pops
    counts = {(op, kind): 0 for op in ("push", "pop") for kind in ("row", "level")}

    def kind(item):
        return "row" if type(item) is int else "level"

    def heappush(heap, item):
        counts["push", kind(item)] += 1
        heapq.heappush(heap, item)

    def heappop(heap):
        item = heapq.heappop(heap)
        counts["pop", kind(item)] += 1
        return item

    monkeypatch.setattr(torsion, "heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappush=heappush, heappop=heappop))
    determinant_oracle(_cover("circle", (128,), theta=2.5))
    assert counts["pop", "row"] == 256
    assert counts["push", "row"] <= 4
    assert counts["push", "level"] <= 4


def test_oracle_runs_no_svd(monkeypatch):
    # the oracle decides acyclicity from its own pivots: no SVD, no matrix_rank
    def forbidden(*args, **kwargs):
        raise AssertionError("determinant_oracle called an SVD")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "matrix_rank", forbidden)
    for cx in (build_preset("circle", theta=1.0), build_preset("torus2", alpha=1.0, beta=0.3),
               _cover("circle", (8,), theta=0.4), _cover("torus2", (4, 4), alpha=1.0, beta=0.3)):
        determinant_oracle(cx)
    with pytest.raises(NotAcyclic):
        determinant_oracle(build_preset("interval", rank=2))


def _ranks_chain(cx):
    """Exact acyclicity by numpy's matrix_rank: rank bd_k + rank bd_(k+1) = dim C_k."""
    ranks = [0] + [int(np.linalg.matrix_rank(cx.boundary(k))) if cx.boundary(k).size else 0
                   for k in range(1, cx.dimension + 1)] + [0]
    return all(ranks[k] + ranks[k + 1] == d for k, d in enumerate(cx.dims))


def test_pivot_verdict_against_matrix_rank():
    # returned => the matrix_rank ranks chain; ranks do not chain => NotAcyclic;
    # above the pivot threshold (theta >= 1e-9) both accept
    cells, _ = preset("circle", theta=1.0)
    thetas = [10.0 ** -e for e in range(6, 15)]
    cases = [(cx, None) for cx in (
        build_preset("circle", theta=1.0), build_preset("circle", theta=math.pi),
        build_preset("torus2", alpha=1.0, beta=0.3), build_preset("torus2", alpha=0.0, beta=0.7),
        build_preset("interval", rank=1), build_preset("point", rank=2),
        build_twisted_boundary(cells, Representation(1, [np.eye(1)])),
        # a 1-cell and no 0-cell: bd_1 is 0 x 1, with more columns than rows
        build_twisted_boundary(CellStructure(dimension=1, cells_per_degree=(0, 1),
                                             incidences=((), ((),))), Representation(1, [])))]
    cases += [(_cover("circle", (n,), theta=theta), theta)
              for n in (1, 2, 8, 64) for theta in thetas]
    cases += [(_cover("torus2", (n, n), alpha=theta, beta=theta), theta)
              for n in (2, 4) for theta in thetas]
    outcomes = set()
    for cx, theta in cases:
        try:
            determinant_oracle(cx)
            returned = True
        except NotAcyclic:
            returned = False
        chain = _ranks_chain(cx)
        assert chain or not returned
        if theta is not None and theta >= 1e-9:
            assert chain and returned
        outcomes.add((chain, returned))
    # accepted, not acyclic, and acyclic but refused at the pivot threshold
    assert outcomes == {(True, True), (False, False), (True, False)}


def test_torsion_path_is_values_only_and_bitwise(monkeypatch):
    # spectra, betti, tr_logs and log_reidemeister run no SVD with singular vectors
    svd = np.linalg.svd
    computed_uv = []

    def recording_svd(a, *args, **kwargs):
        computed_uv.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    rng = np.random.default_rng(17)
    for cx in (*(_cover("circle", (n,), theta=1.3) for n in (2, 8, 64)),
               _cover("torus2", (4, 4), alpha=1.0, beta=0.3)):
        for metric in (ChainMetric.identity(cx), ChainMetric.random_spd(cx, rng)):
            fac = factorize(cx, metric)
            assert fac.betti == [0] * (cx.dimension + 1)
            tr_logs = fac.tr_logs
            log_reidemeister(cx, metric)
            reference = _reference_positive_spectra(cx, metric)
            assert len(fac.spectra) == len(reference) == len(tr_logs)
            for lam, ref, tr_log in zip(fac.spectra, reference, tr_logs):
                assert np.array_equal(lam, ref)
                assert tr_log == float(np.sum(np.log(lam)))
    assert computed_uv and not any(computed_uv)


def test_log_reidemeister_leaves_the_complex_as_built():
    # a complex keeps its blocks only: no densified bd_k outlives the call
    # (the 512-gon's dense bd_1 is 1024 x 1024, 8 MB), and a live Factorization
    # keeps its singular values, not the weighted map W_1 (8 MB before)
    ngon = _cover("circle", (512,), theta=2.5)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        log_reidemeister(ngon)
        kept = tracemalloc.get_traced_memory()[0] - start
        fac = factorize(ngon)
        kept_live = tracemalloc.get_traced_memory()[0] - start - kept
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * 2 ** 20, f"the 512-gon keeps {kept} bytes after log_reidemeister"
    assert fac.betti == [0, 0]
    assert kept_live < 0.1 * 2 ** 20, f"a Factorization of the 512-gon keeps {kept_live} bytes"


def test_variation_gammas_match_solve():
    def gammas_agree(cx, path):
        rep = variation_check(cx, path, [float(k) for k in range(cx.dimension + 1)],
                              check_convergence=False)
        ref = _reference_gammas(cx, path, 0.0, rep.step)
        assert len(rep.gammas) == len(ref)
        for gamma, expected in zip(rep.gammas, ref):
            assert abs(gamma - expected) <= 1e-12 * max(1.0, abs(expected))

    rng = np.random.default_rng(123)
    for case in range(3):
        cx = build_preset("torus2", alpha=1.1 + case, beta=0.4)
        gammas_agree(cx, exponential_metric_path(
            [rng.standard_normal((d, d)) for d in cx.dims]))
    gammas_agree(build_preset("circle", theta=3e-5),
                 lambda u: ChainMetric([np.eye(2) * (1.0 + u), np.eye(2)]))
    ngon = _cover("circle", (16,), theta=2.0)
    gammas_agree(ngon, exponential_metric_path(
        [0.3 * rng.standard_normal((d, d)) for d in ngon.dims]))


def test_log_reidemeister_circle_closed_form():
    # 3e-5 puts both Laplacian eigenvalues near 9e-10
    for theta in (1.0, math.pi / 2, math.pi, 2.5, 3e-5):
        cx = build_preset("circle", theta=theta)
        expected = math.log(4.0 * math.sin(theta / 2.0) ** 2)
        assert abs(log_reidemeister(cx) - expected) < 1e-12


def test_log_reidemeister_requires_acyclic():
    cells, _ = preset("circle", theta=1.0)
    trivial = build_twisted_boundary(cells, Representation(1, [np.eye(1)]))
    with pytest.raises(NotAcyclic):
        log_reidemeister(trivial)
    with pytest.raises(NotAcyclic):
        determinant_oracle(trivial)


def test_betti_and_minor_oracle_agree_on_acyclicity():
    cells, _ = preset("circle", theta=1.0)
    trivial = build_twisted_boundary(cells, Representation(1, [np.eye(1)]))
    circles = [build_preset("circle", theta=t) for t in (1e-7, 3e-5, 1.0)] + [trivial]
    for cx in circles:
        try:
            determinant_oracle(cx)
            oracle_acyclic = True
        except NotAcyclic:
            oracle_acyclic = False
        assert (factorize(cx).betti == [0, 0]) == oracle_acyclic
    assert factorize(trivial).betti == [1, 1]


def test_determinant_oracle_circle_is_log_det():
    for theta in (0.4, 1.0, 2.5):
        cx = build_preset("circle", theta=theta)
        expected = math.log(abs(np.linalg.det(cx.boundary(1))))
        assert abs(determinant_oracle(cx) - expected) < 1e-12


def test_oracle_equivalence_on_presets():
    for theta in (1.0, math.pi / 2, 2.5, math.pi):
        cx = build_preset("circle", theta=theta)
        assert abs(log_reidemeister(cx) - determinant_oracle(cx)) < 1e-10
    for alpha, beta in ((1.0, 0.3), (2.2, 1.1), (0.0, 2.0)):
        cx = build_preset("torus2", alpha=alpha, beta=beta)
        assert abs(log_reidemeister(cx) - determinant_oracle(cx)) < 1e-8


def test_torsion_independent_of_cw_model():
    # the circle again, subdivided into N arcs: its N-fold cover
    theta = 1.3
    expected = math.log(4.0 * math.sin(theta / 2.0) ** 2)
    for n in (2, 8, 64, 512):
        cx = _cover("circle", (n,), theta=theta)
        assert abs(log_reidemeister(cx) - expected) < 1e-10
        assert abs(determinant_oracle(cx) - expected) < 1e-10
    # cubical tori, like the one-cell torus2 preset, have log T = 0
    for n in (4, 16):
        grid = _cover("torus2", (n, n), alpha=1.0, beta=0.3)
        assert abs(log_reidemeister(grid)) < 1e-10
        assert abs(determinant_oracle(grid)) < 1e-10


def test_metric_covariance_of_log_torsion():
    # log T(h) - log T(I) = 1/2 sum_k (-1)^(k+1) log det h_k, exactly
    rng = np.random.default_rng(3)
    for cx in (build_preset("circle", theta=2.1),
               build_preset("torus2", alpha=1.0, beta=0.3), _cover("circle", (8,), theta=2.1)):
        base = log_reidemeister(cx)
        for _ in range(3):
            metric = ChainMetric.random_spd(cx, rng)
            shift = 0.5 * sum(
                (-1.0) ** (k + 1) * np.linalg.slogdet(metric.matrix(k))[1]
                for k in range(cx.dimension + 1))
            assert abs(log_reidemeister(cx, metric) - base - shift) < 1e-12


def test_generalized_log_torsion_examples():
    assert generalized_log_torsion((3.0, 5.0), (0.0, 1.0)) == 2.5
    assert generalized_log_torsion((3.0, 5.0), (0.0, 0.0)) == 0.0
    cx = build_preset("circle", theta=math.pi / 2)
    assert abs(generalized_log_torsion(factorize(cx).tr_logs, (0.0, 1.0))
               - math.log(2.0)) < 1e-12
    with pytest.raises(ShapeMismatch, match="^got 2 traces but 3 weights$"):
        generalized_log_torsion((1.0, 2.0), (1.0, 2.0, 3.0))
    # variation_check's weights go through the same one length check
    with pytest.raises(ShapeMismatch, match="^got 2 traces but 3 weights$"):
        variation_check(cx, lambda u: ChainMetric.identity(cx), (0.0, 1.0, 2.0))


def test_generalized_log_torsion_linearity():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(4)
    b1, b2 = rng.standard_normal(4), rng.standard_normal(4)
    lhs = generalized_log_torsion(t, 2.0 * b1 + 3.0 * b2)
    rhs = 2.0 * generalized_log_torsion(t, b1) + 3.0 * generalized_log_torsion(t, b2)
    assert abs(lhs - rhs) < 1e-12


def test_euler_characteristic_duality_identity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        half = [int(rng.integers(0, 5)) for _ in range(n // 2 + 1)]
        b = [half[min(k, n - k)] for k in range(n + 1)]
        chi, chi_prime = euler_characteristics(b, n)
        assert chi_prime * (1 + (-1) ** n) == n * chi
        if n % 2 == 0:
            assert 2 * chi_prime == n * chi


def test_classify_beta_examples():
    cls = classify_beta((1.0, 1.0, 1.0))
    assert cls.satisfies_recurrence and cls.lam == 1.0 and cls.mu == 0.0
    cls = classify_beta((0.0, 1.0, 2.0, 3.0))
    assert cls.satisfies_recurrence and cls.lam == 0.0 and cls.mu == 1.0
    cls = classify_beta((1.0, 2.0, 4.0))
    assert not cls.satisfies_recurrence
    assert cls.residual == (1.0,)
    # the tolerance scales with max |beta_j|: the residual -1.455e-11 here is
    # the rounding of the decimal inputs, while 1e-6 off the line is not
    cls = classify_beta((1e5, 1e5 + 0.1, 1e5 + 0.2))
    assert cls.satisfies_recurrence and cls.lam == 1e5
    assert abs(cls.residual[0]) > 1e-11
    assert not classify_beta((1e5, 1e5 + 0.1 + 1e-6, 1e5 + 0.2)).satisfies_recurrence
    # length <= 2 is vacuous
    assert classify_beta((7.0, -1.0)).satisfies_recurrence


def test_classify_beta_refuses_non_finite_weights():
    # before, (0, inf, 1) made the tolerance inf and passed as linear with mu = inf
    for beta, shown in (((0.0, math.inf, 1.0), "beta_1 must be finite, got inf"),
                        ((math.nan,), "beta_0 must be finite, got nan"),
                        ((1.0, 2.0, -math.inf), "beta_2 must be finite, got -inf")):
        with pytest.raises(BadParameter, match=f"^weight {re.escape(shown)}$"):
            classify_beta(beta)


def test_weighted_torsions_refuse_non_finite_weights():
    # before, generalized_log_torsion returned inf and variation_check a nan report
    path = exponential_metric_path([0.1 * np.eye(d) for d in build_preset("torus2").dims])
    for call, shown in ((lambda: generalized_log_torsion([1.0, 2.0], [0.0, math.inf]),
                         "beta_1 must be finite, got inf"),
                        (lambda: generalized_log_torsion([1.0, 2.0], [-math.inf, 0.0]),
                         "beta_0 must be finite, got -inf"),
                        (lambda: variation_check(build_preset("torus2"), path, (0.0, math.nan, 2.0)),
                         "beta_1 must be finite, got nan")):
        with pytest.raises(BadParameter, match=f"^weight {re.escape(shown)}$"):
            call()


def test_reconstruct_refuses_weights_off_the_recurrence():
    assert classify_beta((0.0, 1.0, 2.0)).reconstruct(4).tolist() == [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(BadParameter, match="not in span"):
        classify_beta((1.0, 2.0, 4.0)).reconstruct(3)


def test_telescoping_tables():
    # interior rows carry (-1)^(j+1) (beta_{j+1} - 2 beta_j + beta_{j-1});
    # the boundary rows truncate the stencil (out-of-range beta read as 0)
    table = _telescoping_coefficient_table(4)
    assert table[2] == {3: -1, 2: 2, 1: -1}
    assert table[0] == {0: 2, 1: -1}
    assert table[4] == {4: 2, 3: -1}
    for n in range(1, 11):
        assert _telescoping_coefficient_table(n) == _second_difference_table(n)
        assert _telescoping_identity_holds(n)


def test_variation_constant_path():
    cx = build_preset("circle", theta=1.0)
    rep = variation_check(cx, lambda u: ChainMetric.identity(cx), (0.0, 1.0),
                          check_convergence=False)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_variation_circle_scale_path():
    def path(u):
        return ChainMetric([np.eye(2) * (1.0 + u), np.eye(2)])

    for theta in (1.0, 3e-5):
        cx = build_preset("circle", theta=theta)
        rep = variation_check(cx, path, (0.0, 1.0))
        assert abs(rep.tr_alphas[0] - 2.0) < 1e-10  # alpha_0 = I at u = 0
        assert abs(rep.lhs + 2.0) < 1e-6  # 2 log T(u) = const - 2 log(1 + u)
        assert rep.discrepancy < 1e-6
        assert _laplacian_dot_residual(cx, path, rep.step) < 1e-6
        assert 2.5 < rep.convergence_ratio < 8.0


def test_routes_read_the_boundary_maps_only(monkeypatch):
    # every spectrum comes off the SVDs of the weighted boundary maps: the
    # dense d_k, delta_k and L_k live in verify only, and no route reaches them
    moved = {"laplacian", "metric_adjoint", "coboundary", "hodge_split", "EigenspaceSplit",
             "NotAnEigenvalue"}
    for module in (torsionlab, hodge, torsion, errors):
        assert not moved & set(vars(module)), f"{module.__name__} defines a dense helper"
    # and a Factorization is plain data: no vectors and no Green's operator
    for name in ("green_inverse", "_svd", "eigenpairs", "coclosed"):
        assert not hasattr(hodge.Factorization, name)

    def forbidden(*args, **kwargs):
        raise AssertionError("a torsion route formed d_k, delta_k or L_k")

    for name in ("_laplacian", "_metric_adjoint", "_coboundary"):
        monkeypatch.setattr(verify, name, forbidden)
    rng = np.random.default_rng(11)
    cx = build_preset("torus2")
    value = log_reidemeister(cx)
    assert abs(value - determinant_oracle(cx)) < 1e-10
    assert math.isfinite(log_reidemeister(cx, ChainMetric.random_spd(cx, rng)))
    path = exponential_metric_path([rng.standard_normal((d, d)) for d in cx.dims])
    assert variation_check(cx, path, (0.0, 1.0, 2.0)).discrepancy < 1e-6


def test_variation_gamma_structure():
    # gamma_n vanishes in the top degree; gamma_0 equals tr(alpha_0)
    rng = np.random.default_rng(31)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    path = exponential_metric_path([rng.standard_normal((d, d)) for d in cx.dims])
    rep = variation_check(cx, path, (0.0, 1.0, 2.0), check_convergence=False)
    assert rep.gammas[-1] == 0.0
    assert abs(rep.gammas[0] - rep.tr_alphas[0]) < 1e-9


def test_variation_random_paths_quadratic():
    rng = np.random.default_rng(123)
    for case in range(2):
        cx = build_preset("torus2", alpha=1.1 + case, beta=0.4)
        path = exponential_metric_path(
            [rng.standard_normal((d, d)) for d in cx.dims])
        rep = variation_check(cx, path, (0.0, 1.0, 2.0))
        assert rep.discrepancy < 1e-6
        if rep.discrepancy > 1e-10:
            assert 2.5 < rep.convergence_ratio < 8.0


def test_variation_gentle_grid_paths():
    # gentle paths on the 2 x 2 grid, drawn as the benchmark's gentle-path
    # probe draws them; the halving ratios were 1.09 and 2.18 (StepTooLarge)
    # when every h(u +- step) was eigendecomposed on its own basis
    for seed in (19, 22):
        rng = np.random.default_rng(seed)
        alpha, beta = (float(rng.uniform(0.4, 2 * math.pi - 0.4)) for _ in range(2))
        cx = _cover("torus2", (2, 2), alpha=alpha, beta=beta)
        gens = [0.3 * 0.5 * (s + s.T) for s in (rng.standard_normal((d, d)) for d in cx.dims)]
        rep = variation_check(cx, exponential_metric_path(gens), (0.0, 1.0, 2.0))
        assert rep.discrepancy < 1e-6
        assert rep.convergence_ratio > 2.5


def test_variation_shares_the_base_point(monkeypatch):
    # path(u0), its coclosed vectors and its inverses serve both steps: 5 path
    # and 4 factorize calls with the halving check, 3 and 2 without (the base
    # point takes its vectors from one SVD per map, not from a factorization)
    from torsionlab import hodge, torsion

    counts = {"path": 0, "factorize": 0}
    real_factorize = hodge.factorize

    def counting_factorize(*args, **kwargs):
        counts["factorize"] += 1
        return real_factorize(*args, **kwargs)

    monkeypatch.setattr(hodge, "factorize", counting_factorize)
    monkeypatch.setattr(torsion, "factorize", counting_factorize)
    rng = np.random.default_rng(31)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    real_path = exponential_metric_path([rng.standard_normal((d, d)) for d in cx.dims])

    def path(u):
        counts["path"] += 1
        return real_path(u)

    # and each h0^{-1} is formed once, for both steps
    real_inv = ChainMetric.inv

    def counting_inv(self, k):
        counts["inv"] += 1
        return real_inv(self, k)

    monkeypatch.setattr(ChainMetric, "inv", counting_inv)
    for check, paths, factorizations in ((True, 5, 4), (False, 3, 2)):
        counts.update(path=0, factorize=0, inv=0)
        variation_check(cx, path, (0.0, 1.0, 2.0), check_convergence=check)
        assert counts == {"path": paths, "factorize": factorizations, "inv": len(cx.dims)}


def test_variation_runs_one_full_svd_per_map_at_the_base_point(monkeypatch):
    # the base point takes rank and coclosed vectors from one full SVD per map,
    # and each of the four factorizations (two steps, either sign) one values-only
    # SVD per map; before, the base point ran a values-only SVD too: 5 and 1
    svd = np.linalg.svd
    calls = {}

    def counting_svd(a, *args, **kwargs):
        key = (a.shape, kwargs.get("compute_uv", True))
        calls[key] = calls.get(key, 0) + 1
        return svd(a, *args, **kwargs)

    rng = np.random.default_rng(41)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    path = exponential_metric_path([rng.standard_normal((d, d)) for d in cx.dims])
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    variation_check(cx, path, (0.0, 1.0, 2.0))
    shapes = [(cx.dims[k], cx.dims[k - 1]) for k in range(1, cx.dimension + 1)]
    assert len(set(shapes)) == 2
    assert calls == {**{(shape, False): 4 for shape in shapes},
                     **{(shape, True): 1 for shape in shapes}}


def test_variation_requires_acyclic():
    cells, _ = preset("circle", theta=1.0)
    trivial = build_twisted_boundary(cells, Representation(1, [np.eye(1)]))
    with pytest.raises(NotAcyclic):
        variation_check(trivial, lambda u: ChainMetric.identity(trivial),
                        (0.0, 1.0), check_convergence=False)
