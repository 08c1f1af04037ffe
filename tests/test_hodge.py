import math
import pickle
import tracemalloc

import numpy as np
import pytest

from torsionlab import (
    ChainMetric,
    TwistedComplex,
    build_preset,
    build_twisted_boundary,
    cyclic_cover,
    exponential_metric_path,
    factorize,
    preset,
)
from torsionlab.errors import (
    BadParameter,
    NotAcyclic,
    NumericalLimit,
    ShapeMismatch,
)
from torsionlab.hodge import _singular_triples
from torsionlab.verify import (
    _coboundary,
    _eigenpairs,
    _green_inverses,
    _hodge_splits,
    _laplacian,
    _metric_adjoint,
)


def _cover(name: str, orders: tuple[int, ...], **params) -> TwistedComplex:
    """Preset `name`, with its options, built on its cyclic cover of the given orders."""
    cells, rho = preset(name, **params)
    return build_twisted_boundary(cyclic_cover(cells, orders), rho)


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
    for cx in (build_preset("torus2", alpha=1.0, beta=0.3), _cover("circle", (8,), theta=1.3),
               _cover("torus2", (4, 4), alpha=1.0, beta=0.3)):
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
        factorize(cx, ChainMetric.random_spd(other, np.random.default_rng(0)))


def test_eigenpairs_examples():
    # eigenpairs of L_k: closed pairs (through bd_k) first, then coclosed (from W_{k+1})
    cx = build_preset("circle", theta=math.pi / 2)
    fac = factorize(cx)
    (lam0, vectors0, n_closed0), (lam1, vectors1, n_closed1) = _eigenpairs(fac)
    assert np.allclose(lam1, [2.0, 2.0]) and vectors1.shape == (2, 2) and n_closed1 == 2
    assert np.allclose(lam0, [2.0, 2.0]) and vectors0.shape == (2, 2) and n_closed0 == 0

    cx2 = build_preset("torus2", alpha=1.0, beta=0.3)
    fac = factorize(cx2)
    pairs = _eigenpairs(fac)
    assert [n_closed for _, _, n_closed in pairs] == [0, 2, 2]
    assert [lam.size for lam, _, _ in pairs] == list(cx2.dims)  # no kernel


def test_eigenpairs_residuals_and_orthonormality():
    # the closed vectors come from the coclosed ones of degree k - 1 through bd_k;
    # the untwisted 8-gon checks that isometry where the kernel cut drops values
    rng = np.random.default_rng(8)
    for cx in (build_preset("torus2", alpha=0.9, beta=2.4), _cover("circle", (8,), theta=0.0)):
        metric = ChainMetric.random_spd(cx, rng)
        fac = factorize(cx, metric)
        for k, (lam, vectors, n_closed) in enumerate(_eigenpairs(fac)):
            lap = _laplacian(cx, metric, k)
            assert np.array_equal(np.sort(lam), fac.spectra[k])
            scale = max(1.0, np.max(np.abs(lap)))
            for value, v in zip(lam, vectors.T):
                assert np.linalg.norm(lap @ v - value * v) < 1e-9 * scale
            gram = vectors.T @ metric.matrix(k) @ vectors
            assert np.max(np.abs(gram - np.eye(lam.size))) < 1e-10
            # closed vectors have d_k v = 0, coclosed ones delta_{k-1} v = 0
            closed = _coboundary(cx, k) @ vectors[:, :n_closed]
            assert np.max(np.abs(closed), initial=0.0) < 1e-10
            if k > 0:
                down = _metric_adjoint(cx, metric, k - 1) @ vectors[:, n_closed:]
                assert np.max(np.abs(down), initial=0.0) < 1e-10
    # the 8-gon's kernel cut dropped two of W_1's 16 singular values
    assert fac.betti == [2, 2] and n_closed == 14


def test_singular_vectors_repeat_bitwise():
    # no vectors are kept, so every call runs its SVDs again: same bits each time
    rng = np.random.default_rng(9)
    cx = _cover("torus2", (3, 3), alpha=1.0, beta=0.3)
    for metric in (None, ChainMetric.random_spd(cx, rng)):
        first, again = _singular_triples(cx, metric), _singular_triples(cx, metric)
        assert len(first) == len(again) == cx.dimension
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                   for triple, triple_again in zip(first, again)
                   for a, b in zip(triple, triple_again))


def test_eigenpairs_take_one_full_svd_per_map(monkeypatch):
    # the eigenpairs of every degree, and the Green's operators and Hodge splits
    # built on them, take the coclosed vectors once per factorization: one full
    # SVD per map.  Each degree ran every map's SVD again before: six full SVDs
    # for the three Green's operators of torus2, where two do
    svd = np.linalg.svd
    shapes = []

    def counting_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    rng = np.random.default_rng(5)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    maps = [(cx.dims[k], cx.dims[k - 1]) for k in range(1, cx.dimension + 1)]
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for metric in (None, ChainMetric.random_spd(cx, rng)):
        fac = factorize(cx, metric)
        lam = float(fac.spectra[0][0])
        for run in (_eigenpairs, _green_inverses, lambda f: _hodge_splits(f, lam)):
            shapes.clear()
            assert len(run(fac)) == cx.dimension + 1
            assert shapes == maps


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
    assert _eigenpairs(fac)[0][0].size == 2
    assert np.max(np.abs(_green_inverses(fac)[0] @ lap - np.eye(2))) < 1e-8
    trivial = build_preset("circle", theta=0.0)
    fac = factorize(trivial)
    assert [d - lam.size for d, (lam, _, _) in zip(trivial.dims, _eigenpairs(fac))] \
        == fac.betti == [2, 2]
    # the untwisted 8-gon: the Green operator is I on the constant sections, its kernel
    ngon = _cover("circle", (8,), theta=0.0)
    assert factorize(ngon).betti == [2, 2]
    green = _green_inverses(factorize(ngon))[0]
    constants = np.tile(np.eye(2), (8, 1))
    off_kernel = np.eye(16) - constants @ constants.T / 8.0
    assert np.max(np.abs(green @ constants - constants)) < 1e-12
    assert np.max(np.abs(green @ _laplacian(ngon, None, 0) - off_kernel)) < 1e-12


def test_identity_metric_is_unfactored_identity():
    for cx in (build_preset("circle", theta=1.0), build_preset("torus2", alpha=1.0, beta=0.3),
               build_preset("circle", theta=0.0)):
        factored = ChainMetric([np.eye(d) for d in cx.dims])
        for k, d in enumerate(cx.dims):
            for factor in (factored.matrix(k), factored.sqrt(k), factored.isqrt(k),
                           factored.inv(k)):
                assert np.array_equal(factor, np.eye(d)) and not factor.flags.writeable
        identity, weighted = factorize(cx), factorize(cx, factored)
        assert identity.metric is None and weighted.metric is factored
        for lam, ref in zip(identity.spectra, weighted.spectra):
            assert np.array_equal(lam, ref)


def test_chain_metric_is_read_only():
    cx = build_preset("circle", theta=1.0)
    metric = ChainMetric.random_spd(cx, np.random.default_rng(0))
    sqrt = metric.sqrt(1)
    for name in ("_degrees", "matrix", "extra"):
        with pytest.raises(AttributeError):
            setattr(metric, name, None)
        with pytest.raises(AttributeError):
            delattr(metric, name)
    assert np.array_equal(metric.sqrt(1), sqrt) and metric.matches(cx)
    # a copy keeps the degrees, and metrics compare by identity
    again = pickle.loads(pickle.dumps(metric))
    assert again != metric and np.array_equal(again.sqrt(1), sqrt)


def test_chain_metric_repr_names_its_dimensions():
    # before, every metric printed as ChainMetric(), its one slot being private
    metric = ChainMetric.random_spd(build_preset("torus2"), np.random.default_rng(0))
    assert repr(metric) == "ChainMetric(dims=(2, 4, 2))"
    assert repr(ChainMetric([np.eye(2), 2.0 * np.eye(2)])) == "ChainMetric(dims=(2, 2))"
    assert repr(ChainMetric([])) == "ChainMetric(dims=())"


def test_metric_factors_refuse_a_degree_outside_the_metric():
    factored = ChainMetric([np.diag([2.0, 3.0]), np.array([[5.0]])])
    for k in (-1, 2):
        for factor in (factored.matrix, factored.sqrt, factored.isqrt, factored.inv):
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


def test_metric_path_refuses_where_every_eigenvalue_was_tested():
    # path(u) reads the extremes of u w from the ends of eigh's ascending w: it
    # refuses at the u, in the degree and with the message that the test over
    # every eigenvalue of u S_k gives, NaN included, past a zero-size degree
    log_tiny, log_max = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    gens = [np.diag([-3.0, 2.0]), np.zeros((0, 0)), np.array([[5.0]]),
            np.array([[1e-300, 0.0, 0.0], [0.0, -40.0, 2.0], [0.0, 2.0, 700.0]])]
    path = exponential_metric_path(gens)
    eigenvalues = [np.linalg.eigh(0.5 * (s + s.T))[0] for s in gens]

    def reference(u):
        for k, w in enumerate(eigenvalues):
            uw = u * w
            if uw.size and not (log_tiny < np.min(uw) and np.max(uw) < log_max):
                return (f"metric generator in degree {k}: exp(u S_k) or its inverse overflows, "
                        f"u S_k has eigenvalues in [{np.min(uw):.3e}, {np.max(uw):.3e}]")
        return None

    refused = 0
    for u in (1.0, -1.0, 0.0, -0.0, 0.5, -0.5, 1.05, -1.05, -18.0, -20.0, 100.0, -100.0,
              150.0, -150.0, 300.0, -300.0, 5, -5, np.float64(-250.0), math.nan):
        message = reference(u)
        if message is None:
            metric = path(u)
            assert [metric.matrix(k).shape[0] for k in range(4)] == [2, 0, 1, 3]
        else:
            refused += 1
            with pytest.raises(NumericalLimit) as caught:
                path(u)
            assert str(caught.value) == message, u
    assert 0 < refused < 20
    # every degree zero-size: nothing to test, nothing refused
    assert exponential_metric_path([np.zeros((0, 0))])(math.inf).matrix(0).shape == (0, 0)


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


def test_exponential_path_states_its_tangent():
    # h(0) = I, and path.tangent holds the read-only symmetrized generators S_k,
    # the path's derivative at u = 0
    rng = np.random.default_rng(6)
    gens = [rng.standard_normal((d, d)) for d in (3, 5)]
    path = exponential_metric_path(gens)
    step = 1e-5
    assert len(path.tangent) == len(gens)
    for k, (g, s) in enumerate(zip(gens, path.tangent)):
        assert np.array_equal(s, 0.5 * (g + g.T)) and not s.flags.writeable
        assert np.max(np.abs(path(0.0).matrix(k) - np.eye(len(g)))) < 1e-14
        difference = (path(step).matrix(k) - path(-step).matrix(k)) / (2.0 * step)
        assert np.max(np.abs(difference - s)) < 1e-8


def test_exponential_metric_keeps_h_and_its_eigenpairs():
    # a metric on the path keeps h_k and shares the path's eigenpairs; h^{1/2},
    # h^{-1/2} and h^{-1} are formed per request (64 MB kept on the 512-gon's dims
    # before, where h_0 and h_1 are 8 MB each)
    ngon = _cover("circle", (512,), theta=2.5)
    rng = np.random.default_rng(1)
    path = exponential_metric_path([0.01 * rng.standard_normal((d, d)) for d in ngon.dims])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        metric = path(1.0)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert metric.matches(ngon)
    assert kept < 20 * 2 ** 20, f"a metric on the 512-gon's dims keeps {kept} bytes"


def test_hodge_split_pairing_across_degrees():
    rng = np.random.default_rng(9)
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    fac = factorize(cx, ChainMetric.random_spd(cx, rng))
    for k in (0, 1):
        for lam in fac.spectra[k]:
            splits = _hodge_splits(fac, float(lam))
            g_here = splits[k][1]
            # lam absent upstairs has f_mult 0 there: its eigenspace here is closed
            f_above = splits[k + 1][0]
            assert g_here == f_above


def test_intertwining_identities():
    rng = np.random.default_rng(12)
    cx = build_preset("torus2", alpha=1.9, beta=0.7)
    metric = ChainMetric.random_spd(cx, rng)
    laps = [_laplacian(cx, metric, k) for k in range(3)]
    fac = factorize(cx, metric)
    greens = _green_inverses(fac)
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
    for cx in (build_preset("torus2", alpha=1.0, beta=0.3), _cover("circle", (6,), theta=2.0),
               _cover("torus2", (3, 3), alpha=0.7, beta=1.9)):
        metric = ChainMetric.random_spd(cx, rng)
        for k, tr_log in enumerate(factorize(cx, metric).tr_logs):
            sym = metric.sqrt(k) @ _laplacian(cx, metric, k) @ metric.isqrt(k)
            chol = np.linalg.cholesky(0.5 * (sym + sym.T))
            oracle = 2.0 * float(np.sum(np.log(np.diag(chol))))
            assert abs(tr_log - oracle) < 1e-9 * max(1.0, abs(oracle))


@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("theta", [0.4, 2.5])
def test_ngon_spectra_are_the_characters_of_its_cover(n, theta):
    # the N-gon's Laplacians diagonalise over the N-th roots w of rho's eigenvalues
    # exp(+-i theta), each w giving 2 - 2 Re w; both signs give the same values
    # 2 - 2 cos((theta + 2 pi j) / N), so each comes twice, in both degrees
    roots = (theta + 2.0 * np.pi * np.arange(n)) / n
    expected = np.sort(np.repeat(2.0 - 2.0 * np.cos(roots), 2))
    for lam in factorize(_cover("circle", (n,), theta=theta)).spectra:
        assert lam.shape == expected.shape
        assert np.max(np.abs(lam - expected)) < 1e-12


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("alpha, beta", [(1.0, 0.3), (2.2, 4.4)])
def test_grid_spectra_are_the_characters_of_its_cover(n, alpha, beta):
    # likewise on the n x n grid, with one root for each of rho(a) and rho(b):
    # L_0 and L_2 take 4 sin^2(x_i / 2) + 4 sin^2(y_j / 2) twice, and L_1, whose
    # positive spectrum is theirs together, four times
    x = (alpha + 2.0 * np.pi * np.arange(n)) / n
    y = (beta + 2.0 * np.pi * np.arange(n)) / n
    values = (4.0 * np.sin(x / 2.0) ** 2)[:, None] + (4.0 * np.sin(y / 2.0) ** 2)[None, :]
    once = np.sort(np.repeat(values.ravel(), 2))
    expected = (once, np.sort(np.repeat(once, 2)), once)
    spectra = factorize(_cover("torus2", (n, n), alpha=alpha, beta=beta)).spectra
    for lam, ref in zip(spectra, expected, strict=True):
        assert lam.shape == ref.shape
        assert np.max(np.abs(lam - ref)) < 1e-12
