import math

import numpy as np
import pytest

from torsionlab import (
    preset,
    CellStructure,
    ChainMetric,
    Representation,
    acyclic_spectra,
    betti,
    build_preset,
    build_twisted_boundary,
    classify_beta,
    determinant_oracle,
    euler_characteristics,
    exponential_metric_path,
    factorize,
    generalized_log_torsion,
    log_reidemeister,
    positive_spectra,
    rotation,
    telescoping_identity_holds,
    variation_check,
)
from torsionlab.errors import NotAcyclic, PivotFailure, ShapeMismatch, StepTooLarge
from torsionlab.hodge import coboundary, laplacian, metric_adjoint
from torsionlab.torsion import (
    RANK_TOL,
    _full_pivot_logdet,
    second_difference_table,
    telescoping_coefficient_table,
)


def _ngon_circle(n: int, theta: float):
    """The twisted circle as n vertices and n edges, the twist on the closing edge."""
    edges = tuple((((i + 1) % n, 1, ((0, 1),) if i == n - 1 else ()), (i, -1, ()))
                  for i in range(n))
    cells = CellStructure(dimension=1, cells_per_degree=(n, n),
                          incidences=(((),) * n, edges))
    return build_twisted_boundary(cells, Representation(2, [rotation(theta)]))


def _grid_torus(n: int, alpha: float, beta: float):
    """The cubical n x n torus; cells crossing the seams carry the generators x, y."""
    def vertex(i, j):
        return (i % n) * n + j % n

    def x(i):
        return ((0, 1),) if i == n - 1 else ()

    def y(j):
        return ((1, 1),) if j == n - 1 else ()

    grid = [(i, j) for i in range(n) for j in range(n)]
    # edge vertex(i, j) runs along x from (i, j), edge n^2 + vertex(i, j) along y
    edges = tuple(((vertex(i + 1, j), 1, x(i)), (vertex(i, j), -1, ())) for i, j in grid) \
        + tuple(((vertex(i, j + 1), 1, y(j)), (vertex(i, j), -1, ())) for i, j in grid)
    faces = tuple(((vertex(i, j), 1, ()), (n * n + vertex(i + 1, j), 1, x(i)),
                   (vertex(i, j + 1), -1, y(j)), (n * n + vertex(i, j), -1, ()))
                  for i, j in grid)
    cells = CellStructure(dimension=2, cells_per_degree=(n * n, 2 * n * n, n * n),
                          incidences=(((),) * (n * n), edges, faces))
    return build_twisted_boundary(cells, Representation(2, [rotation(alpha), rotation(beta)]))


def _reference_full_pivot_logdet(mat):
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
            raise PivotFailure(f"pivot {abs(piv):.3e} below threshold")
        log_det += math.log(abs(piv))
        pivot_rows.append(piv_row)
        row_pool.remove(piv_row)
        col_pool.remove(piv_col)
        if row_pool and col_pool:
            rows, cols = np.array(row_pool), np.array(col_pool)
            factors = work[rows, piv_col] / piv
            work[np.ix_(rows, cols)] -= np.outer(factors, work[piv_row, cols])
    return pivot_rows, log_det


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
            up = metric_adjoint(cx, h0, k) @ coboundary(cx, k)
            gammas.append(float(np.trace(np.linalg.solve(laplacian(cx, h0, k), up @ alpha))))
        else:
            gammas.append(0.0)
    return gammas


def _oracle_minors(cx):
    """The boundary minors determinant_oracle eliminates, top degree first."""
    minors = []
    columns = list(range(cx.dims[-1]))
    for k in range(cx.dimension, 0, -1):
        minors.append(cx.boundary(k)[:, columns])
        taken = set(_reference_full_pivot_logdet(minors[-1])[0])
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
            mats += _oracle_minors(_ngon_circle(n, theta))
        for n in (2, 5, 9):
            mats += _oracle_minors(_grid_torus(n, theta, 1.1))
    for mat in mats:
        rows, log_det = _full_pivot_logdet(mat)
        ref_rows, ref_log_det = _reference_full_pivot_logdet(mat)
        assert rows == ref_rows
        assert log_det == ref_log_det
    # a tie: the first maximum in row-major order is column 0 of row 0, and
    # pivoting on column 2 instead would pick rows [0, 3, 1]
    ties = np.array([[1, -1, 1], [1, -1, 0], [0, -1, 0], [0, 1, 1]], dtype=float)
    assert _full_pivot_logdet(ties)[0] == _reference_full_pivot_logdet(ties)[0] == [0, 1, 2]


def test_elimination_rejects_column_rank_deficiency():
    rng = np.random.default_rng(8)
    for base in (rng.integers(-3, 4, size=(12, 5)).astype(float),
                 rng.standard_normal((40, 30))):
        for extra in (base[:, 2], base[:, 0] - 2.0 * base[:, 4], np.zeros(len(base))):
            mat = np.column_stack([base, extra])
            with pytest.raises(PivotFailure) as ref:
                _reference_full_pivot_logdet(mat)
            with pytest.raises(PivotFailure) as new:
                _full_pivot_logdet(mat)
            assert str(new.value) == str(ref.value)


def test_torsion_path_is_values_only_and_bitwise(monkeypatch):
    # betti, positive_spectra and log_reidemeister run no SVD with singular vectors
    svd = np.linalg.svd
    computed_uv = []

    def recording_svd(a, *args, **kwargs):
        computed_uv.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    rng = np.random.default_rng(17)
    for cx in (_ngon_circle(2, 1.3), _ngon_circle(8, 1.3), _ngon_circle(64, 1.3),
               _grid_torus(4, 1.0, 0.3)):
        for metric in (ChainMetric.identity(cx), ChainMetric.random_spd(cx, rng)):
            fac = factorize(cx, metric)
            assert fac.betti == betti(cx, metric) == [0] * (cx.dimension + 1)
            assert fac._vectors == {}
            spectra = positive_spectra(cx, metric)
            log_reidemeister(cx, metric)
            reference = _reference_positive_spectra(cx, metric)
            assert len(spectra) == len(reference)
            for lam, ref, cached in zip(spectra, reference, fac.spectra):
                assert np.array_equal(lam, ref) and np.array_equal(cached, ref)
    assert computed_uv and not any(computed_uv)


def test_variation_gammas_match_solve():
    def gammas_agree(cx, path, step=1e-4):
        rep = variation_check(cx, path, [float(k) for k in range(cx.dimension + 1)],
                              step=step, check_convergence=False)
        ref = _reference_gammas(cx, path, 0.0, step)
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
    ngon = _ngon_circle(16, 2.0)
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
        assert (betti(cx) == [0, 0]) == oracle_acyclic
    assert betti(trivial) == [1, 1]


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


def test_oracle_equivalence_on_random_complexes():
    rng = np.random.default_rng(77)
    for _ in range(25):
        theta = float(rng.uniform(0.15, 2.0 * math.pi - 0.15))
        cx = build_preset("circle", theta=theta)
        assert abs(log_reidemeister(cx) - determinant_oracle(cx)) < 1e-8
    for _ in range(25):
        cx = build_preset(
            "torus2",
            alpha=float(rng.uniform(0.15, 2.0 * math.pi - 0.15)),
            beta=float(rng.uniform(0.15, 2.0 * math.pi - 0.15)))
        assert abs(log_reidemeister(cx) - determinant_oracle(cx)) < 1e-8


def test_torsion_independent_of_cw_model():
    # the circle again, but subdivided into two arcs
    theta = 1.3
    cells = CellStructure(
        dimension=1, cells_per_degree=(2, 2),
        incidences=(
            ((), ()),
            (((1, 1, ()), (0, -1, ())),
             ((0, 1, ((0, 1),)), (1, -1, ()))),
        ),
    )
    cx = build_twisted_boundary(cells, Representation(2, [rotation(theta)]))
    expected = math.log(4.0 * math.sin(theta / 2.0) ** 2)
    for cx in (cx, _ngon_circle(8, theta), _ngon_circle(64, theta), _ngon_circle(512, theta)):
        assert abs(log_reidemeister(cx) - expected) < 1e-10
        assert abs(determinant_oracle(cx) - expected) < 1e-10
    # cubical tori, like the one-cell torus2 preset, have log T = 0
    for n in (4, 16):
        grid = _grid_torus(n, 1.0, 0.3)
        assert abs(log_reidemeister(grid)) < 1e-10
        assert abs(determinant_oracle(grid)) < 1e-10


def test_metric_covariance_of_log_torsion():
    # log T(h) - log T(I) = 1/2 sum_k (-1)^(k+1) log det h_k, exactly
    rng = np.random.default_rng(3)
    for cx in (build_preset("circle", theta=2.1),
               build_preset("torus2", alpha=1.0, beta=0.3), _ngon_circle(8, 2.1)):
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
    tr_logs = [float(np.sum(np.log(lam))) for lam in acyclic_spectra(cx)]
    assert abs(generalized_log_torsion(tr_logs, (0.0, 1.0)) - math.log(2.0)) < 1e-12
    with pytest.raises(ShapeMismatch):
        generalized_log_torsion((1.0, 2.0), (1.0, 2.0, 3.0))


def test_generalized_log_torsion_linearity():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(4)
    b1, b2 = rng.standard_normal(4), rng.standard_normal(4)
    lhs = generalized_log_torsion(t, 2.0 * b1 + 3.0 * b2)
    rhs = 2.0 * generalized_log_torsion(t, b1) + 3.0 * generalized_log_torsion(t, b2)
    assert abs(lhs - rhs) < 1e-12


def test_euler_characteristics_examples():
    assert euler_characteristics([1, 0, 1], 2) == (2, 2)
    assert euler_characteristics([1, 1], 1) == (0, -1)
    assert euler_characteristics([1, 2, 1], 2) == (0, 0)


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
    # length <= 2 is vacuous
    assert classify_beta((7.0, -1.0)).satisfies_recurrence


def test_classify_beta_grid():
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        lam, mu = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        beta = [lam + mu * k for k in range(n + 1)]
        cls = classify_beta(beta)
        assert cls.satisfies_recurrence
        assert np.max(np.abs(cls.reconstruct(n + 1) - np.array(beta))) <= 1e-12
    for _ in range(500):
        n = int(rng.integers(2, 7))
        lam, mu = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        beta = [lam + mu * k for k in range(n + 1)]
        beta[int(rng.integers(0, n + 1))] += float(rng.choice((-1, 1))) \
            * float(rng.uniform(1e-6, 1.0))
        assert not classify_beta(beta).satisfies_recurrence


def test_telescoping_tables():
    # interior rows carry (-1)^(j+1) (beta_{j+1} - 2 beta_j + beta_{j-1});
    # the boundary rows truncate the stencil (out-of-range beta read as 0)
    table = telescoping_coefficient_table(4)
    assert table[2] == {3: -1, 2: 2, 1: -1}
    assert table[0] == {0: 2, 1: -1}
    assert table[4] == {4: 2, 3: -1}
    for n in range(2, 11):
        assert telescoping_coefficient_table(n) == second_difference_table(n)
        assert telescoping_identity_holds(n)


def test_variation_constant_path():
    cx = build_preset("circle", theta=1.0)
    rep = variation_check(cx, lambda u: ChainMetric.identity(cx), (0.0, 1.0),
                          check_convergence=False)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_variation_circle_scale_path():
    def path(u):
        return ChainMetric([np.eye(2) * (1.0 + u), np.eye(2)])

    for theta in (1.0, 3e-5):
        rep = variation_check(build_preset("circle", theta=theta), path, (0.0, 1.0))
        assert abs(rep.tr_alphas[0] - 2.0) < 1e-10  # alpha_0 = I at u = 0
        assert abs(rep.lhs + 2.0) < 1e-6  # 2 log T(u) = const - 2 log(1 + u)
        assert rep.discrepancy < 1e-6
        assert rep.laplacian_dot_residual < 1e-6
        assert 2.5 < rep.convergence_ratio < 8.0


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
        rep = variation_check(cx, path, (0.0, 1.0, 2.0), step=1e-4)
        assert rep.discrepancy < 1e-6
        if rep.discrepancy > 1e-10:
            assert 2.5 < rep.convergence_ratio < 8.0


def test_variation_rejects_kinked_path():
    cx = build_preset("circle", theta=1.0)

    def kinked(u):
        factor = 1.0 + (u if u >= 0.0 else 2.0 * u)
        return ChainMetric([np.eye(2) * factor, np.eye(2)])

    with pytest.raises(StepTooLarge):
        variation_check(cx, kinked, (0.0, 1.0))


def test_variation_requires_acyclic():
    cells, _ = preset("circle", theta=1.0)
    trivial = build_twisted_boundary(cells, Representation(1, [np.eye(1)]))
    with pytest.raises(NotAcyclic):
        variation_check(trivial, lambda u: ChainMetric.identity(trivial),
                        (0.0, 1.0), check_convergence=False)
