import math

import numpy as np
import pytest

from torsionlab import (
    ChainMetric,
    Representation,
    betti,
    build_preset,
    build_twisted_boundary,
    complex_power,
    eigendecompose,
    hodge_split,
    laplacian,
    log_op,
    positive_spectra,
    preset,
    spectral_data,
    sym_expm,
    tr_log,
)
from torsionlab.errors import (
    BadParameter,
    NotAnEigenvalue,
    NotInvertible,
    ShapeMismatch,
)


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
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    for k in range(3):
        direct = np.zeros((cx.dims[k], cx.dims[k]))
        if k >= 1:
            direct += cx.boundary(k).T @ cx.boundary(k)
        if k + 1 <= 2:
            direct += cx.boundary(k + 1) @ cx.boundary(k + 1).T
        assert np.max(np.abs(laplacian(cx, None, k) - direct)) < 1e-13


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
    spec = eigendecompose(np.diag([0.0, 1.0, 4.0]))
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 4.0])
    assert spec.kernel_dim == 1

    cx = build_preset("circle", theta=math.pi / 2)
    spec = spectral_data(cx, None, 1)
    assert np.allclose(spec.eigenvalues, [2.0, 2.0])
    assert spec.kernel_dim == 0

    cx2 = build_preset("torus2", alpha=1.0, beta=0.3)
    assert all(spectral_data(cx2, None, k).kernel_dim == 0 for k in range(3))


def test_eigendecompose_residuals_and_orthonormality():
    rng = np.random.default_rng(8)
    cx = build_preset("torus2", alpha=0.9, beta=2.4)
    metric = ChainMetric.random_spd(cx, rng)
    for k in range(3):
        lap = laplacian(cx, metric, k)
        spec = spectral_data(cx, metric, k)
        scale = max(1.0, np.max(np.abs(lap)))
        for lam, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            assert np.linalg.norm(lap @ v - lam * v) < 1e-9 * scale
        gram = spec.eigenvectors.T @ metric.matrix(k) @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(spec.size))) < 1e-10


def test_complex_power_examples():
    spec = eigendecompose(np.diag([4.0]))
    assert np.allclose(complex_power(spec, 0.5), [[2.0]])
    spec = eigendecompose(np.diag([0.0, 9.0]))
    assert np.allclose(complex_power(spec, 0.5), np.diag([0.0, 3.0]))
    # power at 0 is the projector off the kernel
    assert np.allclose(complex_power(spec, 0.0), np.diag([0.0, 1.0]))


def test_complex_power_derivative_matches_log_by_richardson():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((5, 5))
    mat = s @ s.T + 5.0 * np.eye(5)
    spec = eigendecompose(mat)
    logm = log_op(spec)

    def central(eps):
        return (complex_power(spec, eps) - complex_power(spec, -eps)) / (2.0 * eps)

    d1, d2 = central(1e-3), central(5e-4)
    err1 = np.max(np.abs(d1 - logm))
    err2 = np.max(np.abs(d2 - logm))
    assert err1 < 1e-4
    assert err1 / err2 > 3.0  # O(eps^2)
    richardson = (4.0 * d2 - d1) / 3.0
    assert np.max(np.abs(richardson - logm)) < err2


def test_tr_log_values_and_strict_mode():
    spec = eigendecompose(np.diag([math.e, math.e ** 2]))
    assert abs(tr_log(spec) - 3.0) < 1e-12

    cx = build_preset("circle", theta=math.pi / 2)
    spec = spectral_data(cx, None, 1)
    assert abs(tr_log(spec, strict=True) - 2.0 * math.log(2.0)) < 1e-12

    point = build_preset("point")
    spec = spectral_data(point, None, 0)
    with pytest.raises(NotInvertible):
        tr_log(spec, strict=True)


def test_betti_examples():
    assert betti(_trivial_circle()) == [1, 1]
    assert betti(build_preset("circle", theta=1.0)) == [0, 0]
    assert betti(build_preset("point", rank=3)) == [3]
    assert betti(build_preset("torus2", alpha=1.0, beta=0.3)) == [0, 0, 0]
    # one zero angle still leaves the twisted torus acyclic
    assert betti(build_preset("torus2", alpha=1.3, beta=0.0)) == [0, 0, 0]


def test_spectral_data_kernel_follows_betti():
    # both eigenvalues of L_0 sit near 9e-10, below the old relative cut
    cx = build_preset("circle", theta=3e-5)
    assert betti(cx) == [0, 0]
    lap = laplacian(cx, None, 0)
    spec = spectral_data(cx, None, 0)
    assert spec.kernel_dim == 0
    assert np.max(np.abs(spec.green_inverse() @ lap - np.eye(2))) < 1e-8
    trivial = _trivial_circle()
    assert [spectral_data(trivial, None, k).kernel_dim for k in (0, 1)] == betti(trivial)
    # a bare matrix keeps the relative cut
    assert eigendecompose(np.diag([9e-10, 1.0])).kernel_dim == 1


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
        spec = spectral_data(cx, metric, k)
        for lam in spec.positive_eigenvalues():
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
    from torsionlab.hodge import coboundary, metric_adjoint

    rng = np.random.default_rng(12)
    cx = build_preset("torus2", alpha=1.9, beta=0.7)
    metric = ChainMetric.random_spd(cx, rng)
    laps = [laplacian(cx, metric, k) for k in range(3)]
    specs = [spectral_data(cx, metric, k) for k in range(3)]
    greens = [s.green_inverse() for s in specs]
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
    for size in (3, 6, 10):
        s = rng.standard_normal((size, size))
        spd = s @ s.T + size * np.eye(size)
        spec = eigendecompose(spd)
        oracle = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(spd)))))
        assert abs(tr_log(spec, strict=True) - oracle) < 1e-9 * max(1.0, abs(oracle))
