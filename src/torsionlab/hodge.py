"""Combinatorial Hodge theory: metrics, Laplacians, spectral calculus.

Conventions
-----------
For a twisted complex with boundaries bd_k : C_k -> C_{k-1} we set the
coboundary d_k := bd_{k+1}^T : C_k -> C_{k+1} (chain basis throughout) and,
given per-degree inner products h_k, the adjoint

    delta_k := h_k^{-1} d_k^T h_{k+1} : C_{k+1} -> C_k.

The degree-k Laplacian is

    L_k = delta_k d_k + d_{k-1} delta_{k-1},

h_k-self-adjoint and positive semi-definite.  With identity metrics this is
bd_k^T bd_k + bd_{k+1} bd_{k+1}^T.  Spectra (hence every torsion downstream)
do not depend on the chain-vs-cochain bookkeeping.

Torsion and Betti numbers never diagonalize a Laplacian.  Since
d_k d_{k-1} = 0, the positive spectrum of L_k is the union of the squared
singular values of the metric-weighted boundary maps
h_{k+1}^{1/2} d_k h_k^{-1/2} and h_k^{1/2} d_{k-1} h_{k-1}^{-1/2}, so
positive_spectra makes one SVD per boundary map and reads ranks off it with
numpy's matrix_rank rule.  Working on the maps rather than on L_k keeps
small eigenvalues accurate: cond(d) = sqrt(cond(L)).  The spectral calculus
(hodge_split, green_inverse, complex powers, log L), which needs
eigenvectors, solves the symmetric problem h^{1/2} L h^{-1/2} with LAPACK
eigh and takes its kernel dimension from the same SVD rank rule.  All
functions are pure and operate on immutable inputs; results are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexes import TwistedComplex
from .errors import (
    BadParameter,
    NotAcyclic,
    NotAnEigenvalue,
    NotInvertible,
    ShapeMismatch,
)

SYMMETRY_TOL = 1e-12
KERNEL_RELTOL = 1e-9
EIGENVALUE_MATCH_RELTOL = 1e-7


def sym_expm(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via its eigendecomposition."""
    w, v = np.linalg.eigh(np.asarray(s, dtype=float))
    return (v * np.exp(w)) @ v.T


class ChainMetric:
    """Per-degree symmetric positive-definite inner products h_k.

    Square-root factors h^{1/2}, h^{-1/2} and the inverse are computed once
    at construction; instances are immutable.  is_identity is True only for
    ChainMetric.identity, whose factors are all the identity itself.
    """

    is_identity = False

    def __init__(self, matrices: Sequence[np.ndarray]):
        mats, sqrts, isqrts, invs = [], [], [], []
        for k, h in enumerate(matrices):
            h = np.array(h, dtype=float)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ShapeMismatch(f"metric in degree {k} is not square: {h.shape}")
            if h.size:
                sym_defect = float(np.max(np.abs(h - h.T)))
                if sym_defect > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(h)))):
                    raise BadParameter(
                        f"metric in degree {k} is not symmetric (defect {sym_defect:.3e})")
            w, v = np.linalg.eigh(0.5 * (h + h.T))
            if h.size and float(w[0]) <= 0.0:
                raise BadParameter(
                    f"metric in degree {k} is not positive definite (min eig {w[0]:.3e})")
            mats.append(h)
            sqrts.append((v * np.sqrt(w)) @ v.T)
            isqrts.append((v / np.sqrt(w)) @ v.T)
            invs.append((v / w) @ v.T)
            for m in (mats[-1], sqrts[-1], isqrts[-1], invs[-1]):
                m.setflags(write=False)
        self._mats = tuple(mats)
        self._sqrts = tuple(sqrts)
        self._isqrts = tuple(isqrts)
        self._invs = tuple(invs)

    @classmethod
    def identity(cls, cplx: TwistedComplex) -> "ChainMetric":
        """h_k = I in every degree, unfactored: I is its own square root and inverse."""
        metric = cls.__new__(cls)
        eyes = tuple(np.eye(d) for d in cplx.dims)
        for eye in eyes:
            eye.setflags(write=False)
        metric._mats = metric._sqrts = metric._isqrts = metric._invs = eyes
        metric.is_identity = True
        return metric

    @classmethod
    def random_spd(cls, cplx: TwistedComplex, rng: np.random.Generator,
                   spread: float = 0.5) -> "ChainMetric":
        """exp(spread * S) with S random symmetric: well-conditioned SPD metrics."""
        mats = []
        for d in cplx.dims:
            s = rng.standard_normal((d, d))
            mats.append(sym_expm(spread * 0.5 * (s + s.T)))
        return cls(mats)

    def __len__(self) -> int:
        return len(self._mats)

    def matrix(self, k: int) -> np.ndarray:
        return self._mats[k]

    def sqrt(self, k: int) -> np.ndarray:
        return self._sqrts[k]

    def isqrt(self, k: int) -> np.ndarray:
        return self._isqrts[k]

    def inv(self, k: int) -> np.ndarray:
        return self._invs[k]

    def matches(self, cplx: TwistedComplex) -> bool:
        return len(self) == cplx.dimension + 1 and all(
            self._mats[k].shape == (d, d) for k, d in enumerate(cplx.dims))


def _require_metric(cplx: TwistedComplex, metric: ChainMetric | None) -> ChainMetric:
    if metric is None:
        return ChainMetric.identity(cplx)
    if not metric.matches(cplx):
        raise ShapeMismatch("metric degrees do not match the complex")
    return metric


def coboundary(cplx: TwistedComplex, k: int) -> np.ndarray:
    """d_k = bd_{k+1}^T : C_k -> C_{k+1} (zero-shaped outside 0 <= k < dim)."""
    return cplx.boundary(k + 1).T


def metric_adjoint(cplx: TwistedComplex, metric: ChainMetric, k: int) -> np.ndarray:
    """delta_k = h_k^{-1} d_k^T h_{k+1} : C_{k+1} -> C_k."""
    d = coboundary(cplx, k)
    return metric.inv(k) @ d.T @ metric.matrix(k + 1) if k + 1 <= cplx.dimension \
        else d.T


def laplacian(cplx: TwistedComplex, metric: ChainMetric | None, k: int) -> np.ndarray:
    """L_k = delta_k d_k + d_{k-1} delta_{k-1}; h_k-self-adjoint PSD."""
    if not 0 <= k <= cplx.dimension:
        raise ShapeMismatch(f"degree {k} outside 0..{cplx.dimension}")
    metric = _require_metric(cplx, metric)
    dim_k = cplx.dims[k]
    lap = np.zeros((dim_k, dim_k))
    if k < cplx.dimension:
        lap += metric_adjoint(cplx, metric, k) @ coboundary(cplx, k)
    if k > 0:
        lap += coboundary(cplx, k - 1) @ metric_adjoint(cplx, metric, k - 1)
    return lap


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of an h-self-adjoint operator.

    eigenvalues are ascending; eigenvector columns are h-orthonormal
    (plain orthonormal for the identity metric).  The first kernel_dim
    eigenvalues are the kernel: for a Laplacian from spectral_data,
    dims[k] minus the positive_spectra count (the rank rule of betti);
    for a bare matrix from eigendecompose, those below
    1e-9 * max(1, lambda_max).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int
    metric: np.ndarray  # h in this degree; defines the inverse V^{-1} = V^T h

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def vectors_inverse(self) -> np.ndarray:
        return self.eigenvectors.T @ self.metric

    def positive_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.kernel_dim:]

    def apply_function(self, values: np.ndarray) -> np.ndarray:
        """Reassemble V diag(values) V^{-1}; `values` must be spectrum-aligned."""
        return (self.eigenvectors * values) @ self.vectors_inverse

    def kernel_projector(self) -> np.ndarray:
        mask = np.zeros(self.size)
        mask[:self.kernel_dim] = 1.0
        return self.apply_function(mask)

    def green_inverse(self) -> np.ndarray:
        """(L + Pi_ker)^{-1}: the inverse off the kernel, identity on it."""
        lam = self.eigenvalues.copy()
        lam[:self.kernel_dim] = 1.0
        return self.apply_function(1.0 / lam)


def eigendecompose(mat: np.ndarray, h: np.ndarray | None = None) -> SpectralData:
    """Spectral data of an h-self-adjoint PSD matrix (h = I when omitted).

    Solved as a plain symmetric problem on h^{1/2} mat h^{-1/2}; never as a
    generalized eigenproblem.
    """
    mat = np.asarray(mat, dtype=float)
    return _eigendecompose(mat, ChainMetric([np.eye(mat.shape[0]) if h is None else h]), 0)


def _eigendecompose(mat: np.ndarray, metric: ChainMetric, k: int,
                    kernel_dim: int | None = None) -> SpectralData:
    """eigendecompose with the factors of h_k that metric already holds.

    kernel_dim, when given, replaces the relative eigenvalue cut.
    """
    h = metric.matrix(k)
    if h.shape != mat.shape:
        raise ShapeMismatch("metric and operator shapes differ")
    sym = metric.sqrt(k) @ mat @ metric.isqrt(k)
    w, q = np.linalg.eigh(0.5 * (sym + sym.T))
    n = w.shape[0]
    lam_max = float(w[-1]) if n else 0.0
    threshold = KERNEL_RELTOL * max(1.0, lam_max)
    if n and float(w[0]) < -threshold:
        raise BadParameter(f"operator is not PSD: min eigenvalue {w[0]:.3e}")
    if kernel_dim is None:
        kernel_dim = int(np.sum(np.abs(w) < threshold))
    return SpectralData(eigenvalues=w, eigenvectors=metric.isqrt(k) @ q,
                        kernel_dim=kernel_dim, metric=h)


def spectral_data(cplx: TwistedComplex, metric: ChainMetric | None, k: int) -> SpectralData:
    """Spectral data of L_k; kernel_dim is betti(cplx, metric)[k]."""
    metric = _require_metric(cplx, metric)
    kernel_dim = cplx.dims[k] - positive_spectra(cplx, metric)[k].size
    return _eigendecompose(laplacian(cplx, metric, k), metric, k, kernel_dim)


def positive_spectra(cplx: TwistedComplex,
                     metric: ChainMetric | None = None) -> list[np.ndarray]:
    """The positive spectrum of every L_k, ascending, with no Laplacian built.

    One SVD per weighted boundary map W_k = h_k^{1/2} bd_k^T h_{k-1}^{-1/2}
    (bd_k^T itself for the identity metric); its squared singular values
    above numpy's matrix_rank cut (sigma_max * max(W.shape) * eps) belong to
    both L_{k-1} and L_k.  So cplx.dims[k] - len(spectra[k]) is the k-th
    Betti number.
    """
    metric = _require_metric(cplx, metric)
    parts: list[list[np.ndarray]] = [[] for _ in cplx.dims]
    for k in range(1, cplx.dimension + 1):
        w = cplx.boundary(k).T
        if not metric.is_identity:
            w = metric.sqrt(k) @ w @ metric.isqrt(k - 1)
        sigma = np.linalg.svd(w, compute_uv=False) if w.size else np.zeros(0)
        cut = sigma[0] * max(w.shape) * np.finfo(float).eps if sigma.size else 0.0
        lam = sigma[sigma > cut] ** 2
        parts[k - 1].append(lam)
        parts[k].append(lam)
    return [np.sort(np.concatenate(p)) if p else np.zeros(0) for p in parts]


def acyclic_spectra(cplx: TwistedComplex,
                    metric: ChainMetric | None = None) -> list[np.ndarray]:
    """positive_spectra of a complex that must be acyclic.

    Raises NotAcyclic, naming the first degree with a nonzero Betti number.
    """
    spectra = positive_spectra(cplx, metric)
    b = [dim - lam.size for dim, lam in zip(cplx.dims, spectra)]
    for k, b_k in enumerate(b):
        if b_k:
            raise NotAcyclic(f"degree {k} has Betti number {b_k} (Betti numbers {b})")
    return spectra


def complex_power(spec: SpectralData, z: complex) -> np.ndarray:
    """L^z by spectral calculus: lambda -> lambda^z off the kernel, 0 on it.

    complex_power(spec, 0) is the projector onto the orthogonal complement
    of the kernel; complex_power(spec, 1) is L with its kernel removed.
    """
    lam = spec.eigenvalues
    if isinstance(z, complex) and z.imag != 0.0:
        values = np.zeros(spec.size, dtype=complex)
        pos = lam[spec.kernel_dim:].astype(complex)
        values[spec.kernel_dim:] = pos ** z
    else:
        z = float(z.real if isinstance(z, complex) else z)
        values = np.zeros(spec.size)
        values[spec.kernel_dim:] = np.maximum(lam[spec.kernel_dim:], 0.0) ** z
    return spec.apply_function(values)


def log_op(spec: SpectralData) -> np.ndarray:
    """log L: eigenvalue-wise logarithm on the nonzero spectrum, 0 on the kernel."""
    values = np.zeros(spec.size)
    positive = spec.eigenvalues[spec.kernel_dim:]
    values[spec.kernel_dim:] = np.log(positive)
    return spec.apply_function(values)


def tr_log(spec: SpectralData, strict: bool = False) -> float:
    """Sum of log(lambda) over the nonzero spectrum.

    With strict=True the operator must be invertible (kernel_dim == 0);
    otherwise NotInvertible is raised.
    """
    if strict and spec.kernel_dim > 0:
        raise NotInvertible(f"operator has a {spec.kernel_dim}-dimensional kernel")
    positive = spec.eigenvalues[spec.kernel_dim:]
    return float(np.sum(np.log(positive)))


def betti(cplx: TwistedComplex, metric: ChainMetric | None = None) -> list[int]:
    """Kernel dimensions of the degree-k Laplacians (twisted Betti numbers)."""
    return [dim - lam.size for dim, lam in zip(cplx.dims, positive_spectra(cplx, metric))]


@dataclass(frozen=True)
class EigenspaceSplit:
    """Closed/coclosed split of a positive eigenspace.

    proj_closed and proj_coclosed are (d delta)/lambda and (delta d)/lambda
    restricted to the eigenspace, expressed in an h-orthonormal eigenbasis;
    they are complementary orthogonal projections.  f_mult counts the closed
    part, g_mult the coclosed part, and g_mult in degree k equals f_mult in
    degree k+1 (d/sqrt(lambda) is an isometry between them).
    """

    eigenvalue: float
    f_mult: int
    g_mult: int
    proj_closed: np.ndarray
    proj_coclosed: np.ndarray
    basis: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.f_mult + self.g_mult


def hodge_split(cplx: TwistedComplex, metric: ChainMetric | None, k: int,
                lam: float) -> EigenspaceSplit:
    """Split the lambda-eigenspace of L_k into closed and coclosed parts."""
    metric = _require_metric(cplx, metric)
    spec = spectral_data(cplx, metric, k)
    if lam <= 0:
        raise NotAnEigenvalue(f"{lam} is not a positive eigenvalue")
    close = np.abs(spec.eigenvalues - lam) <= EIGENVALUE_MATCH_RELTOL * max(1.0, abs(lam))
    close[:spec.kernel_dim] = False
    if not np.any(close):
        raise NotAnEigenvalue(f"{lam} does not match any positive eigenvalue of L_{k}")
    basis = spec.eigenvectors[:, close]
    h_k = metric.matrix(k)
    down = coboundary(cplx, k - 1) @ metric_adjoint(cplx, metric, k - 1) if k > 0 \
        else np.zeros((cplx.dims[k], cplx.dims[k]))
    up = metric_adjoint(cplx, metric, k) @ coboundary(cplx, k) if k < cplx.dimension \
        else np.zeros((cplx.dims[k], cplx.dims[k]))
    proj_closed = basis.T @ h_k @ (down @ basis) / lam
    proj_coclosed = basis.T @ h_k @ (up @ basis) / lam
    f_mult = int(round(float(np.trace(proj_closed))))
    g_mult = int(round(float(np.trace(proj_coclosed))))
    return EigenspaceSplit(eigenvalue=float(lam), f_mult=f_mult, g_mult=g_mult,
                           proj_closed=proj_closed, proj_coclosed=proj_coclosed,
                           basis=basis)
