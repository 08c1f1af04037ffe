import math
import tracemalloc

import numpy as np
import pytest

from torsionlab import (
    ChainMetric,
    build_preset,
    exponential_metric_path,
    factorize,
)
from torsionlab.errors import (
    BadParameter,
    NotAcyclic,
    NumericalLimit,
    ShapeMismatch,
)
from torsionlab.verify import (
    _coboundary,
    _green_inverse,
    _hodge_split,
    _laplacian,
    _metric_adjoint,
)
from test_torsion import _grid_torus, _ngon_circle


def test_laplacian_circle_closed_form():
    # (rho - I)(rho - I)^T = (2 - 2 cos theta) I for a rotation rho
    for theta in (1.0, math.pi / 2, 2.5):
        cx = build_preset("circle", theta=theta)
        gap = 2.0 - 2.0 * math.cos(theta)
        for k in (0, 1):
            lap = _laplacian(cx, None, k)
            assert np.max(np.abs(lap - gap * np.eye(2))) < 1e-13


def test_laplacian_identity_metric_definition():
    # the identity metric multiplies by no identity factor: L_k is bd^T bd + bd bd^T exactly
    for cx in (build_preset("torus2", alpha=1.0, beta=0.3), _ngon_circle(8, 1.3),
               _grid_torus(4, 1.0, 0.3)):
        for k in range(cx.dimension + 1):
            direct = np.zeros((cx.dims[k], cx.dims[k]))
            if k >= 1:
                direct += cx.boundary(k).T @ cx.boundary(k)
            if k + 1 <= cx.dimension:
                direct += cx.boundary(k + 1) @ cx.boundary(k + 1).T
            assert np.array_equal(_laplacian(cx, None, k), direct)


def test_laplacian_point_is_zero():
    cx = build_preset("point", rank=2)
    assert np.max(np.abs(_laplacian(cx, None, 0))) == 0.0


def test_laplacian_metric_self_adjoint_psd():
    rng = np.random.default_rng(3)
    cx = build_preset("torus2", alpha=1.2, beta=2.0)
    metric = ChainMetric.random_spd(cx, rng)
    spectra = factorize(cx, metric).spectra  # from boundary SVDs, no Laplacian
    for k in range(3):
        lap = _laplacian(cx, metric, k)
        h = metric.matrix(k)
        assert np.max(np.abs(h @ lap - (h @ lap).T)) < 1e-10
        w = np.linalg.eigvalsh(metric.sqrt(k) @ lap @ metric.isqrt(k))
        assert w.min() > -1e-10
        assert np.max(np.abs(spectra[k] - w)) < 1e-10 * w.max()  # acyclic: w > 0


def test_laplacian_shape_mismatch():
    cx = build_preset("circle", theta=1.0)
    other = build_preset("torus2", alpha=1.0, beta=0.3)
    with pytest.raises(ShapeMismatch):
        factorize(cx, ChainMetric.identity(other))


def test_eigenpairs_examples():
    # eigenpairs of L_k: closed pairs (from W_k) first, then coclosed (from W_{k+1})
    cx = build_preset("circle", theta=math.pi / 2)
    fac = factorize(cx)
    lam, vectors, n_closed = fac.eigenpairs(1)
    assert np.allclose(lam, [2.0, 2.0]) and vectors.shape == (2, 2) and n_closed == 2
    lam, vectors, n_closed = fac.eigenpairs(0)
    assert np.allclose(lam, [2.0, 2.0]) and vectors.shape == (2, 2) and n_closed == 0

    cx2 = build_preset("torus2", alpha=1.0, beta=0.3)
    fac = factorize(cx2)
    assert [fac.eigenpairs(k)[2] for k in range(3)] == [0, 2, 2]
    assert all(fac.eigenpairs(k)[0].size == cx2.dims[k] for k in range(3))  # no kernel
    for k in (-1, 3):
        with pytest.raises(ShapeMismatch):
            fac.eigenpairs(k)
        with pytest.raises(ShapeMismatch):
            fac.coclosed(k)


def test_eigenpairs_residuals_and_orthonormality():
    rng = np.random.default_rng(8)
    cx = build_preset("torus2", alpha=0.9, beta=2.4)
    metric = ChainMetric.random_spd(cx, rng)
    fac = factorize(cx, metric)
    for k in range(3):
        lap = _laplacian(cx, metric, k)
        lam, vectors, n_closed = fac.eigenpairs(k)
        assert np.array_equal(np.sort(lam), fac.spectra[k])
        scale = max(1.0, np.max(np.abs(lap)))
        for value, v in zip(lam, vectors.T):
            assert np.linalg.norm(lap @ v - value * v) < 1e-9 * scale
        gram = vectors.T @ metric.matrix(k) @ vectors
        assert np.max(np.abs(gram - np.eye(lam.size))) < 1e-10
        # closed vectors have d_k v = 0, coclosed ones delta_{k-1} v = 0
        assert np.max(np.abs(_coboundary(cx, k) @ vectors[:, :n_closed]), initial=0.0) < 1e-10
        if k > 0:
            down = _metric_adjoint(cx, metric, k - 1) @ vectors[:, n_closed:]
            assert np.max(np.abs(down), initial=0.0) < 1e-10


def test_acyclic_spectra_values_and_strict_mode():
    # L_0 = L_1 = e I on the circle with 2 - 2 cos theta = e, so tr log L_0 = 2
    cx = build_preset("circle", theta=math.acos(1.0 - math.e / 2.0))
    assert abs(factorize(cx).tr_logs[0] - 2.0) < 1e-12

    cx = build_preset("circle", theta=math.pi / 2)
    assert abs(factorize(cx).tr_logs[1] - 2.0 * math.log(2.0)) < 1e-12

    with pytest.raises(NotAcyclic, match=r"^degree 0 has Betti number 1 \(Betti numbers \[1\]\)$"):
        factorize(build_preset("point")).tr_logs


def test_betti_examples():
    assert factorize(build_preset("circle", theta=0.0)).betti == [2, 2]
    assert factorize(build_preset("circle", theta=1.0)).betti == [0, 0]
    assert factorize(build_preset("point", rank=3)).betti == [3]
    assert factorize(build_preset("torus2", alpha=1.0, beta=0.3)).betti == [0, 0, 0]
    # one zero angle still leaves the twisted torus acyclic
    assert factorize(build_preset("torus2", alpha=1.3, beta=0.0)).betti == [0, 0, 0]


def test_factorization_kernel_follows_betti():
    # both eigenvalues of L_0 sit near 9e-10, far above the rank cut
    cx = build_preset("circle", theta=3e-5)
    lap = _laplacian(cx, None, 0)
    fac = factorize(cx)
    assert fac.betti == [0, 0]
    assert fac.eigenpairs(0)[0].size == 2
    assert np.max(np.abs(_green_inverse(fac, 0) @ lap - np.eye(2))) < 1e-8
    trivial = build_preset("circle", theta=0.0)
    fac = factorize(trivial)
    assert [d - fac.eigenpairs(k)[0].size for k, d in enumerate(trivial.dims)] \
        == fac.betti == [2, 2]
    # the untwisted 8-gon: the Green operator is I on the constant sections, its kernel
    ngon = _ngon_circle(8, 0.0)
    assert factorize(ngon).betti == [2, 2]
    green = _green_inverse(factorize(ngon), 0)
    constants = np.tile(np.eye(2), (8, 1))
    off_kernel = np.eye(16) - constants @ constants.T / 8.0
    assert np.max(np.abs(green @ constants - constants)) < 1e-12
    assert np.max(np.abs(green @ _laplacian(ngon, None, 0) - off_kernel)) < 1e-12


def test_identity_metric_is_unfactored_identity():
    for cx in (build_preset("circle", theta=1.0), build_preset("torus2", alpha=1.0, beta=0.3),
               build_preset("circle", theta=0.0)):
        metric = ChainMetric.identity(cx)
        factored = ChainMetric([np.eye(d) for d in cx.dims])
        assert metric.is_identity and not factored.is_identity
        for k, d in enumerate(cx.dims):
            for factor in (metric.matrix(k), metric.sqrt(k), metric.isqrt(k), metric.inv(k)):
                assert np.array_equal(factor, np.eye(d)) and not factor.flags.writeable
        for lam, ref in zip(factorize(cx, metric).spectra, factorize(cx, factored).spectra):
            assert np.array_equal(lam, ref)
    # only the dims are kept, not the 512-gon's two 1024 x 1024 eyes (16.8 MB)
    ngon = _ngon_circle(512, 1.0)
    tracemalloc.start()
    try:
        ChainMetric.identity(ngon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"ChainMetric.identity peaked at {peak} bytes"


def test_metric_factors_refuse_a_degree_outside_the_metric():
    cx = build_preset("circle", theta=1.0)
    factored = ChainMetric([np.diag([2.0, 3.0]), np.array([[5.0]])])
    for metric in (factored, ChainMetric.identity(cx)):
        for k in (-1, 2):
            for factor in (metric.matrix, metric.sqrt, metric.isqrt, metric.inv):
                with pytest.raises(ShapeMismatch, match=f"^degree {k} outside 0..1$"):
                    factor(k)
    assert factored.matrix(1).tolist() == [[5.0]]


def test_betti_euler_poincare_and_metric_independence():
    rng = np.random.default_rng(4)
    for cx in (build_preset("circle", theta=1.0), build_preset("circle", theta=0.0),
               build_preset("torus2", alpha=1.0, beta=0.3)):
        b = factorize(cx).betti
        chi_b = sum((-1) ** k * v for k, v in enumerate(b))
        chi_dim = sum((-1) ** k * d for k, d in enumerate(cx.dims))
        assert chi_b == chi_dim
        for _ in range(10):
            assert factorize(cx, ChainMetric.random_spd(cx, rng)).betti == b


def test_metric_validation():
    with pytest.raises(BadParameter):
        ChainMetric([np.array([[1.0, 0.2], [0.0, 1.0]])])
    with pytest.raises(BadParameter):
        ChainMetric([np.diag([1.0, -0.5])])


def test_metric_refuses_non_finite_entries():
    for bad in (math.nan, math.inf):
        h0 = np.eye(2)
        h0[0, 0] = bad
        with pytest.raises(BadParameter, match="metric in degree 0 has an entry"):
            ChainMetric([h0, np.eye(2)])
        # exp(S) of a non-finite generator: refused before any eigh, on either route
        for make in (ChainMetric.exponential, lambda g: exponential_metric_path(g)(0.5)):
            with pytest.raises(BadParameter, match="metric generator in degree 0 has an entry"):
                make([h0, np.zeros((2, 2))])


def test_exponential_metric_refuses_overflow():
    # a finite generator whose exp leaves the float range, above or below, is
    # admissible input the numerics cannot hold: before, exp(diag(800, 0)) made a
    # NaN metric and the circle a NotAcyclic verdict
    for w in (800.0, -800.0):
        gens = [np.zeros((2, 2)), np.diag([w, 0.0])]
        with pytest.raises(NumericalLimit, match="^metric generator in degree 1: exp"):
            ChainMetric.exponential(gens)
        path = exponential_metric_path(gens)
        assert np.isfinite(path(0.5).matrix(1)).all()
        with pytest.raises(NumericalLimit, match="^metric generator in degree 1: exp"):
            path(1.0)
    with pytest.raises(NumericalLimit, match="^metric generator in degree 0: exp"):
        ChainMetric.exponential([np.diag([800.0, 0.0]), np.zeros((2, 2))])


def test_exponential_metric_against_series():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((4, 4))
    s = 0.1 * (s + s.T)
    series = np.eye(4)
    term = np.eye(4)
    for j in range(1, 30):
        term = term @ s / j
        series = series + term
    assert np.max(np.abs(ChainMetric.exponential([s]).matrix(0) - series)) < 1e-13


def test_exponential_metric_is_one_eigh_per_degree(monkeypatch):
    # exp(u S_k), its square roots and its inverse all come from one eigh of S_k
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(5)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    path = exponential_metric_path([rng.standard_normal((d, d)) for d in cx.dims])
    # the path takes its eigenpairs once; each metric on it runs no eigh
    assert calls == [(d, d) for d in cx.dims]
    for u in (0.0, 1e-4, -0.7):
        calls.clear()
        metric = path(u)
        assert calls == []
        for k, d in enumerate(cx.dims):
            h, root, iroot = metric.matrix(k), metric.sqrt(k), metric.isqrt(k)
            assert np.max(np.abs(root @ root - h)) < 1e-12
            assert np.max(np.abs(root @ iroot - np.eye(d))) < 1e-12
            assert np.max(np.abs(metric.inv(k) @ h - np.eye(d))) < 1e-12
    calls.clear()
    ChainMetric.random_spd(cx, rng)
    assert len(calls) == len(cx.dims)


def test_hodge_split_pairing_across_degrees():
    rng = np.random.default_rng(9)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    fac = factorize(cx, ChainMetric.random_spd(cx, rng))
    for k in (0, 1):
        for lam in fac.spectra[k]:
            g_here = _hodge_split(fac, k, float(lam))[1]
            # lam absent upstairs has f_mult 0 there: its eigenspace here is closed
            f_above = _hodge_split(fac, k + 1, float(lam))[0]
            assert g_here == f_above


def test_intertwining_identities():
    rng = np.random.default_rng(12)
    cx = build_preset("torus2", alpha=1.9, beta=0.7)
    metric = ChainMetric.random_spd(cx, rng)
    laps = [_laplacian(cx, metric, k) for k in range(3)]
    fac = factorize(cx, metric)
    greens = [_green_inverse(fac, k) for k in range(3)]
    for k in range(2):
        d_k = _coboundary(cx, k)
        delta_k = _metric_adjoint(cx, metric, k)
        scale = max(1.0, np.max(np.abs(laps[k])))
        assert np.max(np.abs(d_k @ laps[k] - laps[k + 1] @ d_k)) < 1e-10 * scale
        assert np.max(np.abs(delta_k @ laps[k + 1] - laps[k] @ delta_k)) < 1e-10 * scale
        assert np.max(np.abs(d_k @ greens[k] - greens[k + 1] @ d_k)) < 1e-9
        assert np.max(np.abs(delta_k @ greens[k + 1] - greens[k] @ delta_k)) < 1e-9


def test_tr_log_matches_cholesky_pivots():
    rng = np.random.default_rng(21)
    for cx in (build_preset("torus2", alpha=1.0, beta=0.3), _ngon_circle(6, 2.0),
               _grid_torus(3, 0.7, 1.9)):
        metric = ChainMetric.random_spd(cx, rng)
        for k, tr_log in enumerate(factorize(cx, metric).tr_logs):
            sym = metric.sqrt(k) @ _laplacian(cx, metric, k) @ metric.isqrt(k)
            chol = np.linalg.cholesky(0.5 * (sym + sym.T))
            oracle = 2.0 * float(np.sum(np.log(np.diag(chol))))
            assert abs(tr_log - oracle) < 1e-9 * max(1.0, abs(oracle))
