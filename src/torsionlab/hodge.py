"""Combinatorial Hodge theory: metrics, Laplacians, and their spectra.

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

No Laplacian is ever diagonalized.  Since d_k d_{k-1} = 0, the positive
eigenpairs of L_k are the singular pairs of the metric-weighted boundary
maps W_k = h_k^{1/2} bd_k^T h_{k-1}^{-1/2} and W_{k+1}: the left singular
vectors of W_k span the closed part, the right singular vectors of W_{k+1}
the coclosed part, and each sigma^2 is an eigenvalue.  factorize makes one
values-only SVD per map and reads ranks off it with numpy's matrix_rank
rule, the one kernel rule; torsion and Betti numbers need nothing more.
Singular vectors (for eigenpairs, green_inverse and hodge_split) come from
a second SVD of a map, run once on first use.  Working on the maps rather
than on L_k keeps small eigenvalues accurate: cond(W) = sqrt(cond(L)).
All functions are pure and operate on immutable inputs; results are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .complexes import TwistedComplex
from .errors import BadParameter, NotAcyclic, NotAnEigenvalue, ShapeMismatch

SYMMETRY_TOL = 1e-12
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
    """delta_k = h_k^{-1} d_k^T h_{k+1} : C_{k+1} -> C_k (d_k^T for the identity metric)."""
    d = coboundary(cplx, k)
    if metric.is_identity or k + 1 > cplx.dimension:
        return d.T
    return metric.inv(k) @ d.T @ metric.matrix(k + 1)


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


@dataclass(frozen=True, eq=False)
class Factorization:
    """The singular values and vectors of every metric-weighted boundary map.

    maps[k] is W_k = h_k^{1/2} bd_k^T h_{k-1}^{-1/2} : C_{k-1} -> C_k for
    0 <= k <= n + 1 (bd_k^T itself for the identity metric, zero-shaped for
    k = 0 and k = n + 1).  sigmas[k] holds its singular values above numpy's
    matrix_rank cut sigma_max * max(W_k.shape) * eps, descending; that cut
    is the one kernel rule.  Each sigma^2 belongs to both L_{k-1} and L_k,
    so spectra[k] (ascending) is the positive spectrum of L_k.  Singular
    vectors are computed on first use, one SVD per map, and cached.
    """

    cplx: TwistedComplex
    metric: ChainMetric
    maps: tuple[np.ndarray, ...]
    sigmas: tuple[np.ndarray, ...]
    spectra: tuple[np.ndarray, ...]
    _vectors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def betti(self) -> list[int]:
        return [dim - lam.size for dim, lam in zip(self.cplx.dims, self.spectra)]

    def _singular_vectors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(U, V) of W_k for the kept singular values: W_k V = U diag(sigmas[k])."""
        if k not in self._vectors:
            w, r = self.maps[k], self.sigmas[k].size
            if r:
                u, _, vt = np.linalg.svd(w, full_matrices=False)
                u, v = u[:, :r], vt[:r].T
            else:
                u, v = np.zeros((w.shape[0], 0)), np.zeros((w.shape[1], 0))
            self._vectors[k] = (u, v)
        return self._vectors[k]

    def eigenpairs(self, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(eigenvalues, eigenvectors, n_closed): the positive eigenpairs of L_k.

        Eigenvector columns are h_k-orthonormal.  The first n_closed are
        closed (in im d_{k-1}): left singular vectors of W_k.  The rest are
        coclosed (in im delta_k): right singular vectors of W_{k+1}.  Both
        are mapped back by h_k^{-1/2}; the eigenvalues are their sigma^2.
        """
        if not 0 <= k <= self.cplx.dimension:
            raise ShapeMismatch(f"degree {k} outside 0..{self.cplx.dimension}")
        closed, _ = self._singular_vectors(k)
        _, coclosed = self._singular_vectors(k + 1)
        vectors = np.hstack([closed, coclosed])
        if not self.metric.is_identity:
            vectors = self.metric.isqrt(k) @ vectors
        lam = np.concatenate([self.sigmas[k], self.sigmas[k + 1]]) ** 2
        return lam, vectors, closed.shape[1]

    def green_inverse(self, k: int) -> np.ndarray:
        """(L_k + Pi_ker)^{-1} = I + Q (1/lambda - 1) Q^T h_k.

        Q holds the positive eigenvectors, so this is L_k^{-1} off the
        kernel and the identity on it; no kernel basis is needed.
        """
        lam, q, _ = self.eigenpairs(k)
        q_h = q.T if self.metric.is_identity else q.T @ self.metric.matrix(k)
        return np.eye(q.shape[0]) + (q * (1.0 / lam - 1.0)) @ q_h


def factorize(cplx: TwistedComplex, metric: ChainMetric | None = None) -> Factorization:
    """One values-only SVD per weighted boundary map; vectors come later, on demand."""
    metric = _require_metric(cplx, metric)
    dims = cplx.dims
    maps, sigmas = [np.zeros((dims[0], 0))], [np.zeros(0)]
    for k in range(1, len(dims)):
        w = cplx.boundary(k).T
        if not metric.is_identity:
            w = metric.sqrt(k) @ w @ metric.isqrt(k - 1)
        sigma = np.linalg.svd(w, compute_uv=False) if w.size else np.zeros(0)
        cut = sigma[0] * max(w.shape) * np.finfo(float).eps if sigma.size else 0.0
        maps.append(w)
        sigmas.append(sigma[sigma > cut])
    maps.append(np.zeros((0, dims[-1])))
    sigmas.append(np.zeros(0))
    spectra = tuple(np.sort(np.concatenate(sigmas[k:k + 2]) ** 2) for k in range(len(dims)))
    return Factorization(cplx=cplx, metric=metric, maps=tuple(maps),
                         sigmas=tuple(sigmas), spectra=spectra)


def positive_spectra(cplx: TwistedComplex,
                     metric: ChainMetric | None = None) -> list[np.ndarray]:
    """The positive spectrum of every L_k, ascending, with no Laplacian built.

    cplx.dims[k] - len(spectra[k]) is the k-th Betti number.
    """
    return list(factorize(cplx, metric).spectra)


def acyclic_spectra(cplx: TwistedComplex,
                    metric: ChainMetric | None = None) -> list[np.ndarray]:
    """positive_spectra of a complex that must be acyclic.

    Raises NotAcyclic, naming the first degree with a nonzero Betti number.
    """
    fac = factorize(cplx, metric)
    b = fac.betti
    for k, b_k in enumerate(b):
        if b_k:
            raise NotAcyclic(f"degree {k} has Betti number {b_k} (Betti numbers {b})")
    return list(fac.spectra)


def betti(cplx: TwistedComplex, metric: ChainMetric | None = None) -> list[int]:
    """Kernel dimensions of the degree-k Laplacians (twisted Betti numbers)."""
    return factorize(cplx, metric).betti


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
    eigenvalues, vectors, n_closed = factorize(cplx, metric).eigenpairs(k)
    if lam <= 0:
        raise NotAnEigenvalue(f"{lam} is not a positive eigenvalue")
    close = np.abs(eigenvalues - lam) <= EIGENVALUE_MATCH_RELTOL * max(1.0, abs(lam))
    if not np.any(close):
        raise NotAnEigenvalue(f"{lam} does not match any positive eigenvalue of L_{k}")
    basis = vectors[:, close]
    h_k = metric.matrix(k)
    down = coboundary(cplx, k - 1) @ metric_adjoint(cplx, metric, k - 1) if k > 0 \
        else np.zeros((cplx.dims[k], cplx.dims[k]))
    up = metric_adjoint(cplx, metric, k) @ coboundary(cplx, k) if k < cplx.dimension \
        else np.zeros((cplx.dims[k], cplx.dims[k]))
    proj_closed = basis.T @ h_k @ (down @ basis) / lam
    proj_coclosed = basis.T @ h_k @ (up @ basis) / lam
    f_mult = int(np.count_nonzero(close[:n_closed]))
    g_mult = int(np.count_nonzero(close[n_closed:]))
    return EigenspaceSplit(eigenvalue=float(lam), f_mult=f_mult, g_mult=g_mult,
                           proj_closed=proj_closed, proj_coclosed=proj_coclosed,
                           basis=basis)
