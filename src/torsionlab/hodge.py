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
Its Factorization is the whole Laplacian route: spectra, betti, and
tr_logs, the one place that decides acyclicity and takes the log of a
spectrum.
Singular vectors (for eigenpairs and coclosed) come from a second SVD of
a map, run once on first use.  Working on the maps rather than on L_k
keeps small eigenvalues accurate: cond(W) = sqrt(cond(L)), so nothing here
forms delta_k or L_k as a matrix; the dense operators, Green's operators
and Hodge split that check a Factorization live in verify.
All functions are pure and operate on immutable inputs; results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .complexes import TwistedComplex
from .errors import BadParameter, NotAcyclic, NumericalLimit, SchemaError, ShapeMismatch

SYMMETRY_TOL = 1e-12
# exp(x) and exp(-x) are normal floats for x strictly between these
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_MAX = math.log(np.finfo(float).max)


class ChainMetric:
    """Per-degree symmetric positive-definite inner products h_k.

    h^{1/2}, h^{-1/2} and the inverse come from one eigh per degree, made at
    construction (of h_k itself, or of S_k for ChainMetric.exponential; a
    torsion.exponential_metric_path takes it once for all its metrics);
    instances are immutable.  ChainMetric.identity, the only is_identity
    metric, keeps only dims and builds a read-only I on request.
    """

    is_identity = False

    def __init__(self, matrices: Sequence[np.ndarray]):
        factors = []
        for k, h in enumerate(matrices):
            h = np.array(h, dtype=float)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ShapeMismatch(f"metric in degree {k} is not square: {h.shape}")
            if h.size:
                scale = float(np.max(np.abs(h)))
                if not math.isfinite(scale):
                    raise BadParameter(f"metric in degree {k} has an entry that is not finite")
                sym_defect = float(np.max(np.abs(h - h.T)))
                if sym_defect > SYMMETRY_TOL * max(1.0, scale):
                    raise BadParameter(
                        f"metric in degree {k} is not symmetric (defect {sym_defect:.3e})")
            w, v = np.linalg.eigh(0.5 * (h + h.T))
            if h.size and float(w[0]) <= 0.0:
                raise BadParameter(
                    f"metric in degree {k} is not positive definite (min eig {w[0]:.3e})")
            factors.append((h, w, v))
        self._factor(factors)

    def _factor(self, factors: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Keep h_k, h^{1/2}, h^{-1/2} and h^{-1}, formed from the eigenpairs (w, v) of h_k."""
        self._factors = tuple((h, (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T, (v / w) @ v.T)
                              for h, w, v in factors)
        for m in (m for degree in self._factors for m in degree):
            m.setflags(write=False)
        self._dims = tuple(h.shape[0] for h, _, _, _ in self._factors)

    @classmethod
    def identity(cls, cplx: TwistedComplex) -> "ChainMetric":
        """h_k = I in every degree, unfactored: I is its own square root and inverse."""
        metric = cls.__new__(cls)
        metric._dims, metric.is_identity = cplx.dims, True
        return metric

    @classmethod
    def exponential(cls, generators: Sequence[np.ndarray]) -> "ChainMetric":
        """h_k = exp(S_k) for the symmetrized generators S_k, from one eigh of each."""
        return cls._exponential(cls._generator_eighs(generators), 1.0)

    @staticmethod
    def _generator_eighs(generators: Sequence[np.ndarray]) -> list:
        """The eigenpairs (w, v) of each symmetrized generator 0.5 (S_k + S_k^T)."""
        generators = [np.asarray(s) for s in generators]
        for k, s in enumerate(generators):
            if not np.isfinite(s).all():
                raise BadParameter(
                    f"metric generator in degree {k} has an entry that is not finite")
        return [np.linalg.eigh(0.5 * (s + s.T)) for s in generators]

    @classmethod
    def _exponential(cls, eighs: Sequence[tuple[np.ndarray, np.ndarray]],
                     u: float) -> "ChainMetric":
        """exp(u S_k) from the eigenpairs (w, v) of each S_k: no further eigh.

        Raises NumericalLimit naming the degree when an eigenvalue of u S_k
        leaves (log tiny, log max), where exp(u S_k) would overflow or its
        inverse would: the generator is admissible, floating point cannot
        hold its exponential.
        """
        factors = []
        for k, (w, v) in enumerate(eighs):
            uw = u * w
            if uw.size and not (_LOG_TINY < np.min(uw) and np.max(uw) < _LOG_MAX):
                raise NumericalLimit(
                    f"metric generator in degree {k}: exp(u S_k) or its inverse overflows, "
                    f"u S_k has eigenvalues in [{np.min(uw):.3e}, {np.max(uw):.3e}]")
            e = np.exp(uw)
            factors.append(((v * e) @ v.T, e, v))
        metric = cls.__new__(cls)
        metric._factor(factors)
        return metric

    @classmethod
    def random_spd(cls, cplx: TwistedComplex, rng: np.random.Generator) -> "ChainMetric":
        """exp(S / 2), S the symmetric part of a standard normal matrix: well-conditioned."""
        draws = (rng.standard_normal((d, d)) for d in cplx.dims)
        return cls.exponential([0.25 * (s + s.T) for s in draws])

    def _factor_at(self, k: int, which: int) -> np.ndarray:
        """Factor `which` (h, h^{1/2}, h^{-1/2}, h^{-1}) of degree k; a read-only I
        for the identity metric."""
        if not 0 <= k < len(self._dims):
            raise ShapeMismatch(f"degree {k} outside 0..{len(self._dims) - 1}")
        if not self.is_identity:
            return self._factors[k][which]
        eye = np.eye(self._dims[k])
        eye.setflags(write=False)
        return eye

    def matrix(self, k: int) -> np.ndarray:
        return self._factor_at(k, 0)

    def sqrt(self, k: int) -> np.ndarray:
        return self._factor_at(k, 1)

    def isqrt(self, k: int) -> np.ndarray:
        return self._factor_at(k, 2)

    def inv(self, k: int) -> np.ndarray:
        return self._factor_at(k, 3)

    def matches(self, cplx: TwistedComplex) -> bool:
        return self._dims == cplx.dims


def _require_metric(cplx: TwistedComplex, metric: ChainMetric | None) -> ChainMetric:
    if metric is None:
        return ChainMetric.identity(cplx)
    if not metric.matches(cplx):
        raise ShapeMismatch("metric degrees do not match the complex")
    return metric


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
        """Kernel dimensions of the degree-k Laplacians (twisted Betti numbers)."""
        return [dim - lam.size for dim, lam in zip(self.cplx.dims, self.spectra)]

    @property
    def tr_logs(self) -> list[float]:
        """tr log L_k = sum log spectra[k] in every degree, of an acyclic complex.

        Raises NotAcyclic, naming the first degree with a nonzero Betti number.
        """
        b = self.betti
        for k, b_k in enumerate(b):
            if b_k:
                raise NotAcyclic(f"degree {k} has Betti number {b_k} (Betti numbers {b})")
        return [float(np.sum(np.log(lam))) for lam in self.spectra]

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
        coclosed = self.coclosed(k)
        closed, _ = self._singular_vectors(k)
        if not self.metric.is_identity:
            closed = self.metric.isqrt(k) @ closed
        lam = np.concatenate([self.sigmas[k], self.sigmas[k + 1]]) ** 2
        return lam, np.hstack([closed, coclosed]), closed.shape[1]

    def coclosed(self, k: int) -> np.ndarray:
        """The coclosed eigenvectors of eigenpairs(k), spanning im delta_k."""
        if not 0 <= k <= self.cplx.dimension:
            raise ShapeMismatch(f"degree {k} outside 0..{self.cplx.dimension}")
        _, vectors = self._singular_vectors(k + 1)
        return vectors if self.metric.is_identity else self.metric.isqrt(k) @ vectors


def factorize(cplx: TwistedComplex, metric: ChainMetric | None = None) -> Factorization:
    """One values-only SVD per weighted boundary map; vectors come later, on demand."""
    metric = _require_metric(cplx, metric)
    dims = cplx.dims
    maps, sigmas = [np.zeros((dims[0], 0))], [np.zeros(0)]
    for k in range(1, len(dims)):
        w = cplx.boundary(k).T
        if not metric.is_identity:
            with np.errstate(over="ignore", invalid="ignore"):
                w = metric.sqrt(k) @ w @ metric.isqrt(k - 1)
            if not np.isfinite(w).all():
                raise SchemaError(f"bd_{k} weighted by the metric has an entry that is not finite")
        sigma = np.linalg.svd(w, compute_uv=False) if w.size else np.zeros(0)
        # the eigenvalues of L_k are the squares: refuse a map whose largest
        # square leaves the float range (entries near the float maximum)
        if sigma.size and not math.isfinite(float(sigma[0]) * float(sigma[0])):
            raise SchemaError(f"bd_{k} has singular value {sigma[0]:.3g}, "
                              f"whose square is not finite")
        cut = sigma[0] * (max(w.shape) * np.finfo(float).eps) if sigma.size else 0.0
        maps.append(w)
        sigmas.append(sigma[sigma > cut])
    maps.append(np.zeros((0, dims[-1])))
    sigmas.append(np.zeros(0))
    spectra = tuple(np.sort(np.concatenate(sigmas[k:k + 2]) ** 2) for k in range(len(dims)))
    return Factorization(cplx=cplx, metric=metric, maps=tuple(maps),
                         sigmas=tuple(sigmas), spectra=spectra)
