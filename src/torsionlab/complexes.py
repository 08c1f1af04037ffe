"""Twisted finite chain complexes.

A cell structure is a finite CW-style description: cell counts per degree
and, for every k-cell, a list of incidences (target (k-1)-cell, integer
coefficient, group word).  Tensoring with an orthogonal representation
rho: pi_1 -> O(n) replaces every incidence coefficient c with the n x n
block c * rho(word), producing the twisted boundary matrices

    bd_k : R^(n*c_k) -> R^(n*c_{k-1}),      bd_{k-1} @ bd_k = 0.

Group words are stored explicitly (not as precomputed matrices) so one
cell structure can be paired with many representations.

Basis convention: degree-k chains are indexed cell-major, i.e. the block
of rows/columns [i*n, (i+1)*n) belongs to the i-th k-cell.

The presets circle(theta=1), torus2(alpha=1, beta=0.3), interval(rank=1)
and point(rank=1) take their options as keywords; preset(name, **params)
raises BadParameter naming any keyword the chosen preset does not read.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadParameter,
    BadRepresentation,
    NonChainComplex,
    NotAcyclic,
    SchemaError,
    ShapeMismatch,
)

ORTHOGONALITY_TOL = 1e-12
CHAIN_TOL = 1e-12

# A group word is a sequence of (generator index, exponent) with exponent +-1.
GroupWord = tuple[tuple[int, int], ...]


def as_word(letters: Sequence[Sequence[int]]) -> GroupWord:
    """Normalize and validate a word given as e.g. [[0, 1], [2, -1]]."""
    out = []
    for letter in letters:
        if len(letter) != 2:
            raise SchemaError(f"word letter must be a (generator, exponent) pair, got {letter!r}")
        gen, exp = int(letter[0]), int(letter[1])
        if exp not in (-1, 1):
            raise SchemaError(f"word exponent must be +-1, got {exp}")
        if gen < 0:
            raise SchemaError(f"generator index must be nonnegative, got {gen}")
        out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Representation:
    """An orthogonal representation given by its generator images.

    Each image G must satisfy max|G^T G - I| < 1e-12.  Inverses are taken
    as transposes, so words with negative exponents stay exactly orthogonal.
    """

    rank: int
    generator_images: tuple[np.ndarray, ...]

    def __init__(self, rank: int, generator_images: Sequence[np.ndarray]):
        if rank < 1:
            raise BadRepresentation(f"rank must be positive, got {rank}")
        images = []
        for idx, g in enumerate(generator_images):
            g = np.asarray(g, dtype=float)
            if g.shape != (rank, rank):
                raise BadRepresentation(
                    f"generator {idx} has shape {g.shape}, expected {(rank, rank)}")
            defect = np.max(np.abs(g.T @ g - np.eye(rank))) if rank else 0.0
            if not defect < ORTHOGONALITY_TOL:  # a NaN defect fails too
                raise BadRepresentation(
                    f"generator {idx} is not orthogonal: |G^T G - I| = {defect:.3e}")
            g.setflags(write=False)
            images.append(g)
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "generator_images", tuple(images))

    @property
    def n_generators(self) -> int:
        return len(self.generator_images)

    def evaluate(self, word: GroupWord) -> np.ndarray:
        """Product of generator images along the word; identity for the empty word."""
        out = np.eye(self.rank)
        for gen, exp in word:
            if not 0 <= gen < self.n_generators:
                raise SchemaError(
                    f"word references generator {gen}, but only {self.n_generators} exist")
            g = self.generator_images[gen]
            out = out @ (g if exp == 1 else g.T)
        return out


@dataclass(frozen=True)
class CellStructure:
    """Cells per degree plus signed, word-decorated incidences.

    incidences[k][i] lists (target cell index, coefficient, word) for the
    i-th k-cell; degree 0 has no incidences.
    """

    dimension: int
    cells_per_degree: tuple[int, ...]
    incidences: tuple[tuple[tuple[tuple[int, int, GroupWord], ...], ...], ...]

    def __post_init__(self):
        if self.dimension < 0:
            raise SchemaError("dimension must be nonnegative")
        if len(self.cells_per_degree) != self.dimension + 1:
            raise SchemaError("cells_per_degree must have length dimension + 1")
        if len(self.incidences) != self.dimension + 1:
            raise SchemaError("incidences must have one entry per degree")
        for k, per_cell in enumerate(self.incidences):
            if len(per_cell) != self.cells_per_degree[k]:
                raise SchemaError(f"degree {k}: incidence list does not match cell count")
            for i, entries in enumerate(per_cell):
                for (target, coeff, word) in entries:
                    if k == 0:
                        raise SchemaError("0-cells cannot carry boundary incidences")
                    if not 0 <= target < self.cells_per_degree[k - 1]:
                        raise SchemaError(
                            f"degree {k} cell {i}: target {target} out of range")
                    if not (isinstance(coeff, numbers.Real) and math.isfinite(coeff)
                            and coeff == int(coeff)):
                        raise SchemaError("incidence coefficients must be integers")


@dataclass(frozen=True)
class TwistedComplex:
    """Boundary matrices of a twisted chain complex.

    boundaries[k-1] is bd_k for k = 1..dimension, of shape
    (rank*c_{k-1}, rank*c_k); construction raises ShapeMismatch otherwise,
    so every instance is well-shaped.  Values are immutable after
    construction; instances are safe to share across threads.
    """

    rank: int
    cells_per_degree: tuple[int, ...]
    boundaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = self.dims
        if len(self.boundaries) != self.dimension:
            raise ShapeMismatch(f"{len(self.boundaries)} boundary maps "
                                f"for a complex of dimension {self.dimension}")
        for k, b in enumerate(self.boundaries, start=1):
            if b.shape != (dims[k - 1], dims[k]):
                raise ShapeMismatch(
                    f"bd_{k} has shape {b.shape}, expected {(dims[k - 1], dims[k])}")
            b.setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self.cells_per_degree) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        """Vector-space dimension rank*c_k of each chain degree."""
        return tuple(self.rank * c for c in self.cells_per_degree)

    def boundary(self, k: int) -> np.ndarray:
        """bd_k for 1 <= k <= dimension; zero-shaped matrix outside that range."""
        if 1 <= k <= self.dimension:
            return self.boundaries[k - 1]
        if k <= 0:
            return np.zeros((0, self.dims[0] if k == 0 else 0))
        return np.zeros((self.dims[self.dimension], 0))


@dataclass(frozen=True)
class ValidationReport:
    """Report-only chain validation: residuals of bd_{k-1} @ bd_k per degree."""

    residuals: tuple[tuple[int, float, float], ...]  # (degree k, residual, bound)

    @property
    def ok(self) -> bool:
        return all(r <= bound for (_, r, bound) in self.residuals)

    @property
    def flagged_degrees(self) -> tuple[int, ...]:
        return tuple(k for (k, r, bound) in self.residuals if r > bound)

    @property
    def max_residual(self) -> float:
        return max((r for (_, r, _) in self.residuals), default=0.0)


def build_twisted_boundary(cells: CellStructure, rho: Representation) -> TwistedComplex:
    """Assemble twisted boundary matrices and verify bd o bd = 0.

    rho.evaluate runs once per distinct group word, in order of first use.
    Each degree's coeff * image blocks are summed by one np.add.at into bd_k
    seen as a (c_{k-1}, c_k, n, n) array of blocks, in incidence order, so
    repeated (target, cell) pairs add up exactly as a per-incidence += would.
    Raises NonChainComplex if any composition exceeds
    1e-12 * (1 + |bd_{k-1}|_inf * |bd_k|_inf).
    """
    n = rho.rank
    word_index: dict[GroupWord, int] = {}
    incidences = []
    for k in range(1, cells.dimension + 1):
        incidences.append([(target, i, coeff, word_index.setdefault(word, len(word_index)))
                           for i, entries in enumerate(cells.incidences[k])
                           for (target, coeff, word) in entries])
    images = np.array([rho.evaluate(word) for word in word_index])
    boundaries = []
    for k, entries in enumerate(incidences, start=1):
        c_low, c_high = cells.cells_per_degree[k - 1], cells.cells_per_degree[k]
        mat = np.zeros((n * c_low, n * c_high))
        if entries:
            targets, cols, coeffs, words = zip(*entries)
            values = np.array(coeffs, dtype=float)[:, None, None] * images[list(words)]
            # blocks[t, i] is the view of mat's block (t, i)
            blocks = mat.reshape(c_low, n, c_high, n).transpose(0, 2, 1, 3)
            np.add.at(blocks, (list(targets), list(cols)), values)
        boundaries.append(mat)
    cplx = TwistedComplex(rank=n, cells_per_degree=cells.cells_per_degree,
                          boundaries=tuple(boundaries))
    for k, residual, bound in validate(cplx).residuals:
        if residual > bound:
            raise NonChainComplex(
                f"bd_{k - 1} @ bd_{k} has residual {residual:.3e} > {bound:.3e}")
    return cplx


def validate(cplx: TwistedComplex) -> ValidationReport:
    """Chain residuals of a complex, well-shaped by construction; never raises."""
    residuals = []
    for k in range(2, cplx.dimension + 1):
        lower, upper = cplx.boundary(k - 1), cplx.boundary(k)
        residual = float(np.max(np.abs(lower @ upper))) if lower.size and upper.size else 0.0
        bound = CHAIN_TOL * (1.0 + _opnorm(lower) * _opnorm(upper))
        residuals.append((k, residual, bound))
    return ValidationReport(residuals=tuple(residuals))


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, np.inf)) if m.size else 0.0


def rotation(theta: float) -> np.ndarray:
    """2 x 2 rotation by theta (an element of SO(2))."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _check_angle(theta: float, name: str) -> None:
    if not 0.0 <= theta < 2.0 * math.pi:
        raise BadParameter(f"{name} must lie in [0, 2*pi), got {theta}")


def circle(*, theta: float = 1.0) -> tuple[CellStructure, Representation]:
    """One 0-cell, one 1-cell, bd(e) = (t - 1) e0 with rho(t) the rotation by
    theta; acyclic iff theta != 0."""
    _check_angle(theta, "theta")
    if theta == 0.0:
        raise NotAcyclic("circle preset with theta = 0 is not acyclic")
    cells = CellStructure(
        dimension=1, cells_per_degree=(1, 1),
        incidences=(((),), (((0, 1, ((0, 1),)), (0, -1, ())),)),
    )
    return cells, Representation(2, [rotation(theta)])


def torus2(*, alpha: float = 1.0, beta: float = 0.3) -> tuple[CellStructure, Representation]:
    """One 0-cell, 1-cells a, b, a 2-cell with bd(f) = (1 - b) a + (a - 1) b;
    rho(a), rho(b) rotate by alpha and beta; acyclic unless both are 0."""
    _check_angle(alpha, "alpha")
    _check_angle(beta, "beta")
    if alpha == 0.0 and beta == 0.0:
        raise NotAcyclic("torus2 preset with alpha = beta = 0 is not acyclic")
    empty: GroupWord = ()
    word_a: GroupWord = ((0, 1),)
    word_b: GroupWord = ((1, 1),)
    cells = CellStructure(
        dimension=2, cells_per_degree=(1, 2, 1),
        incidences=(
            ((),),
            (((0, 1, word_a), (0, -1, empty)),
             ((0, 1, word_b), (0, -1, empty))),
            # bd(f) = (1 - b) a + (a - 1) b, the commutator boundary
            (((0, 1, empty), (0, -1, word_b), (1, 1, word_a), (1, -1, empty)),),
        ),
    )
    return cells, Representation(2, [rotation(alpha), rotation(beta)])


def interval(*, rank: int = 1) -> tuple[CellStructure, Representation]:
    """Two 0-cells, one 1-cell, trivial coefficients of the given rank."""
    if rank < 1:
        raise BadParameter("rank must be positive")
    cells = CellStructure(
        dimension=1, cells_per_degree=(2, 1),
        incidences=(((), ()), (((1, 1, ()), (0, -1, ())),)),
    )
    return cells, Representation(rank, [])


def point(*, rank: int = 1) -> tuple[CellStructure, Representation]:
    """A single 0-cell, trivial coefficients of the given rank."""
    if rank < 1:
        raise BadParameter("rank must be positive")
    cells = CellStructure(dimension=0, cells_per_degree=(1,), incidences=(((),),))
    return cells, Representation(rank, [])


PRESETS = {"circle": circle, "torus2": torus2, "interval": interval, "point": point}


def preset(name: str, **params) -> tuple[CellStructure, Representation]:
    """PRESETS[name](**params); BadParameter names any keyword it does not read."""
    if name not in PRESETS:
        raise BadParameter(f"unknown preset {name!r}")
    # unwrap: a functools.wraps wrapper (a tracer's) has no __kwdefaults__
    unread = params.keys() - inspect.unwrap(PRESETS[name]).__kwdefaults__.keys()
    if unread:
        raise BadParameter(f"preset {name} does not read {', '.join(sorted(unread))}")
    return PRESETS[name](**params)


def build_preset(name: str, **params) -> TwistedComplex:
    """preset() followed by build_twisted_boundary()."""
    cells, rho = preset(name, **params)
    return build_twisted_boundary(cells, rho)


# JSON input schema.  Field names are fixed; unknown fields are rejected.
#
# { "dimension": n, "rank": n_rho, "generators": g, "rep": [[...], ...],
#   "cells": [ { "dim": k,
#                "boundary": [ {"cell": j, "coeff": c, "word": [[gen, exp], ...]} ] } ] }

_TOP_FIELDS = {"dimension", "rank", "generators", "rep", "cells"}
_CELL_FIELDS = {"dim", "boundary"}
_INCIDENCE_FIELDS = {"cell", "coeff", "word"}


def structure_from_json(data: dict) -> tuple[CellStructure, Representation]:
    """Parse the fixed JSON schema into (CellStructure, Representation)."""
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise SchemaError(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(data)
    if missing:
        raise SchemaError(f"missing top-level fields: {sorted(missing)}")

    dimension = _as_int(data["dimension"], "dimension")
    rank = _as_int(data["rank"], "rank")
    n_gens = _as_int(data["generators"], "generators")
    rep = data["rep"]
    if not isinstance(rep, list) or len(rep) != n_gens:
        raise SchemaError("rep must list exactly `generators` matrices")
    rho = Representation(rank, [np.asarray(m, dtype=float) for m in rep])

    if not isinstance(data["cells"], list):
        raise SchemaError("cells must be a list")
    per_degree: list[list[list[tuple[int, int, GroupWord]]]] = [
        [] for _ in range(dimension + 1)]
    for cell in data["cells"]:
        if not isinstance(cell, dict):
            raise SchemaError("each cell must be an object")
        unknown = set(cell) - _CELL_FIELDS
        if unknown:
            raise SchemaError(f"unknown cell fields: {sorted(unknown)}")
        if set(cell) != _CELL_FIELDS:
            raise SchemaError("each cell needs exactly the fields 'dim' and 'boundary'")
        k = _as_int(cell["dim"], "cell dim")
        if not 0 <= k <= dimension:
            raise SchemaError(f"cell dim {k} exceeds complex dimension {dimension}")
        entries: list[tuple[int, int, GroupWord]] = []
        if not isinstance(cell["boundary"], list):
            raise SchemaError("cell boundary must be a list")
        for inc in cell["boundary"]:
            if not isinstance(inc, dict):
                raise SchemaError("each incidence must be an object")
            if set(inc) != _INCIDENCE_FIELDS:
                raise SchemaError(
                    "each incidence needs exactly the fields 'cell', 'coeff', 'word'")
            word = as_word(inc["word"])
            for gen, _ in word:
                if gen >= n_gens:
                    raise SchemaError(
                        f"word references generator {gen}, only {n_gens} declared")
            entries.append((_as_int(inc["cell"], "incidence cell"),
                            _as_int(inc["coeff"], "incidence coeff"), word))
        if k == 0 and entries:
            raise SchemaError("0-cells must have an empty boundary list")
        per_degree[k].append(entries)

    cells_struct = CellStructure(
        dimension=dimension,
        cells_per_degree=tuple(len(group) for group in per_degree),
        incidences=tuple(tuple(tuple(e) for e in group) for group in per_degree),
    )
    return cells_struct, rho


def complex_from_json(source: str | Path | dict) -> TwistedComplex:
    """Load a twisted complex from a JSON file path, JSON text, or parsed dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        try:
            if Path(text).exists():
                text = Path(text).read_text()
        except OSError:
            pass  # raw JSON text, not a path
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    cells, rho = structure_from_json(data)
    return build_twisted_boundary(cells, rho)


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value
