import math

import numpy as np
import pytest

from torsionlab import (
    ChainMetric,
    Representation,
    acyclic_spectra,
    betti,
    build_preset,
    build_twisted_boundary,
    factorize,
    hodge_split,
    laplacian,
    positive_spectra,
    preset,
    sym_expm,
)
from torsionlab.errors import (
    BadParameter,
    NotAcyclic,
    NotAnEigenvalue,
    ShapeMismatch,
)
from torsionlab.hodge import coboundary, metric_adjoint
from test_torsion import _grid_torus, _ngon_circle


def _trivial_circle():
    cells, _ = preset("circle", theta=1.0)
    return build_twisted_boundary(cells, Representation(1, [np.eye(1)]))


def test_laplacian_circle_closed_form():
    # (rho - I)(rho - I)^T = (2 - 2 cos theta) I for a rotation rho
    for theta in (1.0, math.pi / 2, 2.5):
        cx = build_preset("circle", theta=theta)
        gap = 2.0 - 2.0 * math.cos(theta)
        for k in (0, 1):
            lap = laplacian(cx, None, k)
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
            assert np.array_equal(laplacian(cx, None, k), direct)


def test_laplacian_point_is_zero():
    cx = build_preset("point", rank=2)
    assert np.max(np.abs(laplacian(cx, None, 0))) == 0.0


def test_laplacian_metric_self_adjoint_psd():
    rng = np.random.default_rng(3)
    cx = build_preset("torus2", alpha=1.2, beta=2.0)
    metric = ChainMetric.random_spd(cx, rng)
    spectra = positive_spectra(cx, metric)  # from boundary SVDs, no Laplacian
    for k in range(3):
        lap = laplacian(cx, metric, k)
        h = metric.matrix(k)
        assert np.max(np.abs(h @ lap - (h @ lap).T)) < 1e-10
        w = np.linalg.eigvalsh(metric.sqrt(k) @ lap @ metric.isqrt(k))
        assert w.min() > -1e-10
        assert np.max(np.abs(spectra[k] - w)) < 1e-10 * w.max()  # acyclic: w > 0


def test_laplacian_shape_mismatch():
    cx = build_preset("circle", theta=1.0)
    other = build_preset("torus2", alpha=1.0, beta=0.3)
    with pytest.raises(ShapeMismatch):
        laplacian(cx, ChainMetric.identity(other), 0)


def test_eigendecompose_examples():
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
    with pytest.raises(ShapeMismatch):
        fac.eigenpairs(3)


def test_eigendecompose_residuals_and_orthonormality():
    rng = np.random.default_rng(8)
    cx = build_preset("torus2", alpha=0.9, beta=2.4)
    metric = ChainMetric.random_spd(cx, rng)
    fac = factorize(cx, metric)
    for k in range(3):
        lap = laplacian(cx, metric, k)
        lam, vectors, n_closed = fac.eigenpairs(k)
        assert np.array_equal(np.sort(lam), fac.spectra[k])
        scale = max(1.0, np.max(np.abs(lap)))
        for value, v in zip(lam, vectors.T):
            assert np.linalg.norm(lap @ v - value * v) < 1e-9 * scale
        gram = vectors.T @ metric.matrix(k) @ vectors
        assert np.max(np.abs(gram - np.eye(lam.size))) < 1e-10
        # closed vectors have d_k v = 0, coclosed ones delta_{k-1} v = 0
        assert np.max(np.abs(coboundary(cx, k) @ vectors[:, :n_closed]), initial=0.0) < 1e-10
        if k > 0:
            down = metric_adjoint(cx, metric, k - 1) @ vectors[:, n_closed:]
            assert np.max(np.abs(down), initial=0.0) < 1e-10


def test_tr_log_values_and_strict_mode():
    # L_0 = L_1 = e I on the circle with 2 - 2 cos theta = e, so tr log L_0 = 2
    cx = build_preset("circle", theta=math.acos(1.0 - math.e / 2.0))
    assert abs(float(np.sum(np.log(acyclic_spectra(cx)[0]))) - 2.0) < 1e-12

    cx = build_preset("circle", theta=math.pi / 2)
    assert abs(float(np.sum(np.log(acyclic_spectra(cx)[1]))) - 2.0 * math.log(2.0)) < 1e-12

    with pytest.raises(NotAcyclic):
        acyclic_spectra(build_preset("point"))


def test_betti_examples():
    assert betti(_trivial_circle()) == [1, 1]
    assert betti(build_preset("circle", theta=1.0)) == [0, 0]
    assert betti(build_preset("point", rank=3)) == [3]
    assert betti(build_preset("torus2", alpha=1.0, beta=0.3)) == [0, 0, 0]
    # one zero angle still leaves the twisted torus acyclic
    assert betti(build_preset("torus2", alpha=1.3, beta=0.0)) == [0, 0, 0]


def test_spectral_data_kernel_follows_betti():
    # both eigenvalues of L_0 sit near 9e-10, far above the rank cut
    cx = build_preset("circle", theta=3e-5)
    assert betti(cx) == [0, 0]
    lap = laplacian(cx, None, 0)
    fac = factorize(cx)
    assert fac.eigenpairs(0)[0].size == 2
    assert np.max(np.abs(fac.green_inverse(0) @ lap - np.eye(2))) < 1e-8
    trivial = _trivial_circle()
    fac = factorize(trivial)
    assert [d - fac.eigenpairs(k)[0].size for k, d in enumerate(trivial.dims)] \
        == fac.betti == betti(trivial) == [1, 1]
    # the untwisted 8-gon: green_inverse is I on the constant sections, its kernel
    ngon = _ngon_circle(8, 0.0)
    assert betti(ngon) == [2, 2]
    green = factorize(ngon).green_inverse(0)
    constants = np.tile(np.eye(2), (8, 1))
    off_kernel = np.eye(16) - constants @ constants.T / 8.0
    assert np.max(np.abs(green @ constants - constants)) < 1e-12
    assert np.max(np.abs(green @ laplacian(ngon, None, 0) - off_kernel)) < 1e-12


def test_identity_metric_is_unfactored_identity():
    for cx in (build_preset("circle", theta=1.0), build_preset("torus2", alpha=1.0, beta=0.3),
               _trivial_circle()):
        metric = ChainMetric.identity(cx)
        factored = ChainMetric([np.eye(d) for d in cx.dims])
        assert metric.is_identity and not factored.is_identity
        for k, d in enumerate(cx.dims):
            for factor in (metric.matrix(k), metric.sqrt(k), metric.isqrt(k), metric.inv(k)):
                assert np.array_equal(factor, np.eye(d)) and not factor.flags.writeable
        for lam, ref in zip(positive_spectra(cx, metric), positive_spectra(cx, factored)):
            assert np.array_equal(lam, ref)


def test_betti_euler_poincare_and_metric_independence():
    rng = np.random.default_rng(4)
    for cx in (build_preset("circle", theta=1.0), _trivial_circle(),
               build_preset("torus2", alpha=1.0, beta=0.3)):
        b = betti(cx)
        chi_b = sum((-1) ** k * v for k, v in enumerate(b))
        chi_dim = sum((-1) ** k * d for k, d in enumerate(cx.dims))
        assert chi_b == chi_dim
        for _ in range(10):
            assert betti(cx, ChainMetric.random_spd(cx, rng)) == b


def test_metric_validation():
    with pytest.raises(BadParameter):
        ChainMetric([np.array([[1.0, 0.2], [0.0, 1.0]])])
    with pytest.raises(BadParameter):
        ChainMetric([np.diag([1.0, -0.5])])


def test_sym_expm_against_series():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((4, 4))
    s = 0.1 * (s + s.T)
    series = np.eye(4)
    term = np.eye(4)
    for j in range(1, 30):
        term = term @ s / j
        series = series + term
    assert np.max(np.abs(sym_expm(s) - series)) < 1e-13


def test_hodge_split_circle_quarter_turn():
    cx = build_preset("circle", theta=math.pi / 2)
    sp0 = hodge_split(cx, None, 0, 2.0)
    assert (sp0.f_mult, sp0.g_mult) == (0, 2)
    sp1 = hodge_split(cx, None, 1, 2.0)
    assert (sp1.f_mult, sp1.g_mult) == (2, 0)
    for sp in (sp0, sp1):
        eye = np.eye(sp.multiplicity)
        assert np.max(np.abs(sp.proj_closed + sp.proj_coclosed - eye)) < 1e-9
        assert np.max(np.abs(sp.proj_closed @ sp.proj_closed - sp.proj_closed)) < 1e-9
        assert np.max(np.abs(sp.proj_coclosed @ sp.proj_coclosed
                             - sp.proj_coclosed)) < 1e-9


def test_hodge_split_pairing_across_degrees():
    rng = np.random.default_rng(9)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    metric = ChainMetric.random_spd(cx, rng)
    for k in (0, 1):
        for lam in positive_spectra(cx, metric)[k]:
            g_here = hodge_split(cx, metric, k, float(lam)).g_mult
            try:
                f_above = hodge_split(cx, metric, k + 1, float(lam)).f_mult
            except NotAnEigenvalue:
                f_above = 0  # lam absent upstairs: its eigenspace here is closed
            assert g_here == f_above


def test_hodge_split_rejects_non_eigenvalue():
    cx = build_preset("circle", theta=math.pi / 2)
    with pytest.raises(NotAnEigenvalue):
        hodge_split(cx, None, 0, 3.333)
    with pytest.raises(NotAnEigenvalue):
        hodge_split(cx, None, 0, -1.0)


def test_intertwining_identities():
    rng = np.random.default_rng(12)
    cx = build_preset("torus2", alpha=1.9, beta=0.7)
    metric = ChainMetric.random_spd(cx, rng)
    laps = [laplacian(cx, metric, k) for k in range(3)]
    fac = factorize(cx, metric)
    greens = [fac.green_inverse(k) for k in range(3)]
    for k in range(2):
        d_k = coboundary(cx, k)
        delta_k = metric_adjoint(cx, metric, k)
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
        spectra = acyclic_spectra(cx, metric)
        for k in range(cx.dimension + 1):
            sym = metric.sqrt(k) @ laplacian(cx, metric, k) @ metric.isqrt(k)
            chol = np.linalg.cholesky(0.5 * (sym + sym.T))
            oracle = 2.0 * float(np.sum(np.log(np.diag(chol))))
            tr_log = float(np.sum(np.log(spectra[k])))
            assert abs(tr_log - oracle) < 1e-9 * max(1.0, abs(oracle))
