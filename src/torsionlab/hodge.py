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
rule, the one kernel rule (_kept); torsion and Betti numbers need nothing
more.  Its Factorization is the whole Laplacian route: spectra, betti, and
tr_logs, the one place that decides acyclicity and takes the log of a
spectrum.  It keeps no vectors.  The one vector path is _coclosed_vectors,
for the variation check's base point: rank and coclosed vectors from one
full SVD per map, through the same cut.  The closed vectors, which only
verify needs, follow from the coclosed ones through bd_k with no SVD.
Working on the maps rather than on L_k keeps small eigenvalues accurate:
cond(W) = sqrt(cond(L)), so nothing here forms delta_k or L_k as a
matrix; the dense operators, eigenpairs, Green's operators and Hodge
split that check a Factorization live in verify.
All functions are pure and operate on immutable inputs; results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .complexes import TwistedComplex
from .errors import (BadParameter, NotAcyclic, NumericalLimit, SchemaError, ShapeMismatch,
                     _real_array)

SYMMETRY_TOL = 1e-12
# exp(x) and exp(-x) are normal floats for x strictly between these
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_MAX = math.log(np.finfo(float).max)
_EPS = np.finfo(float).eps


class ChainMetric:
    """Per-degree symmetric positive-definite inner products h_k.

    Each degree keeps h_k and its eigenpairs (w, v), from one eigh made at
    construction (of h_k itself, or of S_k for an exponential metric, whose
    path takes it once for all its metrics); matrix, sqrt, isqrt and inv
    form h, h^{1/2} = (v sqrt(w)) v^T, h^{-1/2} = (v / sqrt(w)) v^T and
    h^{-1} = (v / w) v^T read-only on each request.  Instances are
    immutable.  ChainMetric.identity, the only is_identity metric, keeps
    only dims and builds a read-only I on request.
    """

    is_identity = False

    def __init__(self, matrices: Sequence[np.ndarray]):
        degrees = []
        for k, h in enumerate(matrices):
            h = _real_array(h, f"metric in degree {k}", BadParameter)
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
            degrees.append((h, w, v))
        self._store(degrees)

    def _store(self, degrees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Keep h_k and the eigenpairs (w, v) of h_k in each degree."""
        self._degrees = tuple(degrees)
        self._dims = tuple(h.shape[0] for h, _, _ in self._degrees)

    @classmethod
    def identity(cls, cplx: TwistedComplex) -> "ChainMetric":
        """h_k = I in every degree, unfactored: I is its own square root and inverse."""
        metric = cls.__new__(cls)
        metric._dims, metric.is_identity = cplx.dims, True
        return metric

    @classmethod
    def exponential(cls, generators: Sequence[np.ndarray]) -> "ChainMetric":
        """h_k = exp(S_k): the metric at u = 1 of exponential_metric_path(generators)."""
        return exponential_metric_path(generators)(1.0)

    @classmethod
    def random_spd(cls, cplx: TwistedComplex, rng: np.random.Generator) -> "ChainMetric":
        """exp(S / 2), S the symmetric part of a standard normal matrix: well-conditioned."""
        draws = (rng.standard_normal((d, d)) for d in cplx.dims)
        return cls.exponential([0.25 * (s + s.T) for s in draws])

    def _form(self, k: int, factor: Callable[..., np.ndarray]) -> np.ndarray:
        """factor(h, w, v) of degree k, read-only; a read-only I for the identity metric."""
        if not 0 <= k < len(self._dims):
            raise ShapeMismatch(f"degree {k} outside 0..{len(self._dims) - 1}")
        out = np.eye(self._dims[k]) if self.is_identity else factor(*self._degrees[k])
        out.setflags(write=False)
        return out

    def matrix(self, k: int) -> np.ndarray:
        return self._form(k, lambda h, w, v: h)

    def sqrt(self, k: int) -> np.ndarray:
        return self._form(k, lambda h, w, v: (v * np.sqrt(w)) @ v.T)

    def isqrt(self, k: int) -> np.ndarray:
        return self._form(k, lambda h, w, v: (v / np.sqrt(w)) @ v.T)

    def inv(self, k: int) -> np.ndarray:
        return self._form(k, lambda h, w, v: (v / w) @ v.T)

    def matches(self, cplx: TwistedComplex) -> bool:
        return self._dims == cplx.dims


MetricPath = Callable[[float], ChainMetric]


def exponential_metric_path(generators: Sequence[np.ndarray]) -> MetricPath:
    """u -> h_k(u) = exp(u S_k) = (v exp(u w)) v^T, from the one eigh per degree
    taken here of each symmetrized generator S_k = 0.5 (G_k + G_k^T).

    ShapeMismatch refuses a generator that is not a square matrix and
    BadParameter one with an entry that is not a finite integer or float,
    each naming the degree.  path(u) raises NumericalLimit naming the
    degree when an eigenvalue of u S_k leaves (log tiny, log max), where
    exp(u S_k) or its inverse would overflow: the generator is admissible,
    floating point cannot hold it.
    """
    generators = [_real_array(s, f"metric generator in degree {k}", BadParameter)
                  for k, s in enumerate(generators)]
    for k, s in enumerate(generators):
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ShapeMismatch(f"metric generator in degree {k} is not square: {s.shape}")
        if not np.isfinite(s).all():
            raise BadParameter(f"metric generator in degree {k} has an entry that is not finite")
    eighs = [np.linalg.eigh(0.5 * (s + s.T)) for s in generators]

    def path(u: float) -> ChainMetric:
        degrees = []
        for k, (w, v) in enumerate(eighs):
            if w.size:
                # w ascends, so u w has its extremes at its ends; a NaN fails the test
                lo, hi = u * w[0], u * w[-1]
                if not lo <= hi:
                    lo, hi = hi, lo
                if not (_LOG_TINY < lo and hi < _LOG_MAX):
                    raise NumericalLimit(
                        f"metric generator in degree {k}: exp(u S_k) or its inverse overflows, "
                        f"u S_k has eigenvalues in [{lo:.3e}, {hi:.3e}]")
            e = np.exp(u * w)
            degrees.append(((v * e) @ v.T, e, v))
        metric = ChainMetric.__new__(ChainMetric)
        metric._store(degrees)
        return metric

    return path


def _require_metric(cplx: TwistedComplex, metric: ChainMetric | None) -> ChainMetric:
    """metric, the identity for None; BadParameter refuses any other type,
    ShapeMismatch a metric whose degrees do not match the complex."""
    if metric is None:
        return ChainMetric.identity(cplx)
    if not isinstance(metric, ChainMetric):
        raise BadParameter(f"metric must be a ChainMetric or None, got {type(metric).__name__}")
    if not metric.matches(cplx):
        raise ShapeMismatch("metric degrees do not match the complex")
    return metric


@dataclass(frozen=True, eq=False)
class Factorization:
    """The singular values of every metric-weighted boundary map.

    sigmas[k] holds the singular values of W_k (see _weighted_map) above
    numpy's matrix_rank cut sigma_max * max(W_k.shape) * eps, descending;
    that cut is the one kernel rule.  Each sigma^2 belongs to both L_{k-1}
    and L_k, so spectra[k] (ascending) is the positive spectrum of L_k.
    Plain data: neither W_k nor any singular vector is kept.
    """

    cplx: TwistedComplex
    metric: ChainMetric
    sigmas: tuple[np.ndarray, ...]
    spectra: tuple[np.ndarray, ...]

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
        return [float(np.log(lam).sum()) for lam in self.spectra]


def _weighted_map(cplx: TwistedComplex, metric: ChainMetric, k: int) -> np.ndarray:
    """W_k = h_k^{1/2} bd_k^T h_{k-1}^{-1/2} : C_{k-1} -> C_k for 1 <= k <= n, bd_k^T
    for the identity metric.  SchemaError refuses an entry that is not finite."""
    w = cplx.boundary(k).T
    if not metric.is_identity:
        with np.errstate(over="ignore", invalid="ignore"):
            w = metric.sqrt(k) @ w @ metric.isqrt(k - 1)
        if not np.isfinite(w).all():
            raise SchemaError(f"bd_{k} weighted by the metric has an entry that is not finite")
    return w


def _kept(sigma: np.ndarray, shape: tuple[int, int], k: int) -> np.ndarray:
    """The singular values sigma (descending) of W_k, of the given shape, above
    numpy's matrix_rank cut sigma_max * max(shape) * eps: the one kernel rule.

    The eigenvalues of L_k are the squares, so SchemaError refuses a map
    whose largest square leaves the float range (entries near the float
    maximum).
    """
    if sigma.size and not math.isfinite(float(sigma[0]) * float(sigma[0])):
        raise SchemaError(f"bd_{k} has singular value {sigma[0]:.3g}, "
                          f"whose square is not finite")
    cut = sigma[0] * (max(shape) * _EPS) if sigma.size else 0.0
    return sigma[sigma > cut]


def factorize(cplx: TwistedComplex, metric: ChainMetric | None = None) -> Factorization:
    """One values-only SVD per weighted boundary map; no vectors."""
    metric = _require_metric(cplx, metric)
    dims = cplx.dims
    sigmas = [np.zeros(0)]
    for k in range(1, len(dims)):
        w = _weighted_map(cplx, metric, k)
        sigma = np.linalg.svd(w, compute_uv=False) if w.size else np.zeros(0)
        sigmas.append(_kept(sigma, w.shape, k))
    sigmas.append(np.zeros(0))
    spectra = tuple(np.sort(np.concatenate(sigmas[k:k + 2]) ** 2) for k in range(len(dims)))
    return Factorization(cplx=cplx, metric=metric, sigmas=tuple(sigmas), spectra=spectra)


def _coclosed_vectors(cplx: TwistedComplex, metric: ChainMetric | None) -> list[np.ndarray]:
    """The coclosed eigenvectors h_k^{-1/2} V of L_k for every k < n, V the right
    singular vectors of W_{k+1}, h_k-orthonormal and spanning im delta_k, from
    one full SVD per map: its singular values give the rank through _kept,
    the same rule and refusals as factorize."""
    metric = _require_metric(cplx, metric)
    out = []
    for k in range(1, cplx.dimension + 1):
        w = _weighted_map(cplx, metric, k)
        if w.size:
            _, sigma, vt = np.linalg.svd(w, full_matrices=False)
        else:
            sigma, vt = np.zeros(0), np.zeros((0, w.shape[1]))
        vectors = vt[:_kept(sigma, w.shape, k).size].T
        out.append(vectors if metric.is_identity else metric.isqrt(k - 1) @ vectors)
    return out
