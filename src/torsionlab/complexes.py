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

Storage: a complex keeps each bd_k as its nonzero n x n blocks (Blocks), at
most a few per cell.  Validation and the minor oracle work on the blocks;
only the Laplacian route's SVD asks for a dense bd_k (boundary(k)).

The presets circle(theta=1), torus2(alpha=1, beta=0.3), interval(rank=1)
and point(rank=1) take their options as keywords; preset(name, **params)
raises BadParameter naming any keyword the chosen preset does not read.
Their options reach the representation only, so each preset's
CellStructure is built once per process and shared by all its calls.
Every angle builds, the trivial ones too: whether a complex is acyclic is
decided by the torsion routes (hodge.Factorization.tr_logs and
torsion.determinant_oracle), not by the presets.

cyclic_cover(cells, orders) lifts a structure to a finite abelian cover.
The subdivided circles and cubical tori are built that way: the N-gon is
cyclic_cover of the circle's cells with orders (N,), and the n x n grid
that of torus2's with (n, n).
"""

from __future__ import annotations

import json
import math
import numbers
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadParameter,
    BadRepresentation,
    NonChainComplex,
    SchemaError,
    ShapeMismatch,
    _angle,
    _as_int,
    _family,
    _ReadOnly,
    _real_array,
)

ORTHOGONALITY_TOL = 1e-12
CHAIN_TOL = 1e-12
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970  # the least integer float() overflows on

# A group word is a tuple of (generator index, exponent) letters: integers,
# the index >= 0 and the exponent +-1; CellStructure and evaluate refuse others.
GroupWord = tuple[tuple[int, int], ...]


def _is_letter(letter) -> bool:
    return (isinstance(letter, tuple) and len(letter) == 2  # int first: numbers.Integral is slow
            and all(type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)
                    for x in letter)
            and letter[0] >= 0 and letter[1] in (-1, 1))


class Representation(_ReadOnly):
    """An orthogonal representation given by its generator images.

    Each image G must be an array of integers or floats with
    max|G^T G - I| < 1e-12, or BadRepresentation names it.  Inverses are
    taken as transposes, so words with negative exponents stay exactly
    orthogonal.  The fields are read-only.
    Representations compare by identity, as complexes do.
    """

    __slots__ = ("rank", "generator_images")
    rank: int
    generator_images: tuple[np.ndarray, ...]

    def __init__(self, rank: int, generator_images: Sequence[np.ndarray]):
        rank = _as_int(rank, "rank", BadRepresentation, low=1)
        images = []
        for idx, g in enumerate(generator_images):
            g = _real_array(g, f"generator {idx}", BadRepresentation)
            if g.shape != (rank, rank):
                raise BadRepresentation(
                    f"generator {idx} has shape {g.shape}, expected {(rank, rank)}")
            defect = np.max(np.abs(g.T @ g - np.eye(rank))) if rank else 0.0
            if not defect < ORTHOGONALITY_TOL:  # a NaN defect fails too
                raise BadRepresentation(
                    f"generator {idx} is not orthogonal: |G^T G - I| = {defect:.3e}")
            g.setflags(write=False)
            images.append(g)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generator_images", tuple(images))

    @property
    def n_generators(self) -> int:
        return len(self.generator_images)

    def evaluate(self, word: GroupWord) -> np.ndarray:
        """Product of generator images along the word; identity for the empty word."""
        if not all(map(_is_letter, word)):
            raise SchemaError(
                f"word {word!r} is not a tuple of (generator >= 0, exponent +-1) integer pairs")
        return self._product(word)

    def _product(self, word: GroupWord) -> np.ndarray:
        """evaluate without the letter check, for words already checked (CellStructure's)."""
        out = np.eye(self.rank)
        for gen, exp in word:
            if gen >= self.n_generators:
                raise SchemaError(
                    f"word references generator {gen}, but only {self.n_generators} exist")
            g = self.generator_images[gen]
            out = out @ (g if exp == 1 else g.T)
        return out


class CellStructure(_ReadOnly):
    """Cells per degree plus signed, word-decorated incidences.

    incidences[k][i] lists (target cell index, coefficient, word) for the
    i-th k-cell; degree 0 has no incidences.  Construction raises
    SchemaError for a dimension or cell count that is not a non-negative
    integer and, naming the degree and cell, for a target or coefficient
    that is not an integer (a bool or 1.0 is not, a numpy integer is), a
    target out of range, a coefficient beyond the float range, or a word
    not a GroupWord: structure_from_json leaves them to it.  It keeps its
    own nested tuples of the given cell counts and incidences, so a later
    edit of the caller's lists changes nothing here.  The fields are
    read-only, and structures compare and hash by value; a copy,
    CellStructure(dimension=..., cells_per_degree=..., incidences=...) of
    the fields, compiles its own layout.
    """

    # __dict__ holds the _layout, compiled at the first build
    __slots__ = ("dimension", "cells_per_degree", "incidences", "__dict__")
    dimension: int
    cells_per_degree: tuple[int, ...]
    incidences: tuple[tuple[tuple[tuple[int, int, GroupWord], ...], ...], ...]

    def __init__(self, dimension: int, cells_per_degree: Sequence[int],
                 incidences: Sequence[Sequence[Sequence[tuple[int, int, GroupWord]]]]):
        _as_int(dimension, "dimension", low=0)
        counts = tuple(cells_per_degree)
        for count in counts:
            _as_int(count, "a cell count", low=0)
        if len(counts) != dimension + 1:
            raise SchemaError("cells_per_degree must have length dimension + 1")
        if len(incidences) != dimension + 1:
            raise SchemaError("incidences must have one entry per degree")
        kept = []
        for k, per_cell in enumerate(incidences):
            if len(per_cell) != counts[k]:
                raise SchemaError(f"degree {k}: incidence list does not match cell count")
            cells = []
            for i, entries in enumerate(per_cell):
                entries = tuple(map(tuple, entries))
                for (target, coeff, word) in entries:
                    if k == 0:
                        raise SchemaError("0-cells cannot carry boundary incidences")
                    if type(target) is not int:  # int first: the name is formatted for others
                        target = _as_int(target, f"degree {k} cell {i}: target")
                    if not 0 <= target < counts[k - 1]:
                        raise SchemaError(
                            f"degree {k} cell {i}: target {target} out of range")
                    if type(coeff) is not int:
                        coeff = _as_int(coeff, f"degree {k} cell {i}: the coefficient on "
                                               f"target {target}")
                    if not -_FLOAT_OVERFLOW < coeff < _FLOAT_OVERFLOW:
                        raise SchemaError(
                            f"degree {k} cell {i}: the coefficient on target {target} "
                            f"does not fit a float")
                    if not (isinstance(word, tuple) and all(map(_is_letter, word))):
                        raise SchemaError(
                            f"degree {k} cell {i}: word {word!r} is not a tuple of "
                            f"(generator >= 0, exponent +-1) integer pairs")
                cells.append(entries)
            kept.append(tuple(cells))
        for name, value in (("dimension", dimension), ("cells_per_degree", counts),
                            ("incidences", tuple(kept))):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.dimension, self.cells_per_degree, self.incidences

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def _layout(self) -> "_Layout":
        """What every build of this structure shares, compiled at the first build.

        The distinct words in order of first use; per degree k >= 1 each
        incidence's coefficient, word and block (its (target, cell) pair,
        numbered row-major among the distinct pairs); and, per k >= 2, the
        pairs of bd_{k-1} and bd_k blocks that share a middle cell.
        """
        word_index: dict[GroupWord, int] = {}
        degrees = []
        for k in range(1, self.dimension + 1):
            entries = [(target, i, coeff, word_index.setdefault(word, len(word_index)))
                       for i, per_cell in enumerate(self.incidences[k])
                       for (target, coeff, word) in per_cell]
            targets, cells, coeffs, words = (list(column) for column in zip(*entries)) \
                if entries else ([], [], [], [])
            n_cols = self.cells_per_degree[k]
            keys = np.array(targets, dtype=np.intp) * n_cols + np.array(cells, dtype=np.intp)
            # the distinct (target, cell) keys, row-major, and each incidence's index
            # among them: np.unique's work, without the 0.75 MB its first call maps in
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = _first_of_runs(keys)
            block = np.empty_like(order)
            block[order] = np.cumsum(first) - 1
            rows, cols = np.divmod(keys[first], max(n_cols, 1))
            degrees.append(_Incidences(np.array(coeffs, dtype=float),
                                       np.array(words, dtype=np.intp), block,
                                       _frozen(rows), _frozen(cols)))
        return _Layout(tuple(word_index), tuple(degrees),
                       _chain_pairs(degrees, self.cells_per_degree))


class _Incidences(NamedTuple):
    """One degree's incidences as arrays, in incidence order, and its blocks."""

    coeffs: np.ndarray  # coefficient of each incidence
    words: np.ndarray   # index of each incidence's word in _Layout.words
    block: np.ndarray   # index of each incidence's block in (rows, cols)
    rows: np.ndarray    # target cell of each distinct block, row-major
    cols: np.ndarray    # cell of each distinct block


class _Layout(NamedTuple):
    words: tuple[GroupWord, ...]
    degrees: tuple[_Incidences, ...]
    pairs: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


class Blocks(NamedTuple):
    """The stored form of one boundary map bd_k: its nonzero n x n blocks.

    values[m] is the block of bd_k in row cell rows[m] and column cell
    cols[m], i.e. at rows [rows[m]*n, rows[m]*n + n) and columns
    [cols[m]*n, cols[m]*n + n).  The (row, column) cell pairs are distinct
    and row-major; the arrays are read-only.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _chain_pairs(maps: Sequence, cells_per_degree: tuple[int, ...]) -> tuple:
    """Per k >= 2, (a, b, starts) for the blocks of bd_{k-1} = maps[k-2] and
    bd_k = maps[k-1] (each with row-major `rows` and `cols` cell arrays):
    every block a of bd_{k-1} and block b of bd_k that share a middle cell,
    lower cols[a] == upper rows[b], grouped by the block (lower rows[a],
    upper cols[b]) of bd_{k-1} @ bd_k they add to, groups row-major and a
    ascending within each; group g begins at starts[g]."""
    pairs = []
    for k, (lower, upper) in enumerate(zip(maps, maps[1:]), start=2):
        counts = np.bincount(upper.rows, minlength=cells_per_degree[k - 1])
        per_a = counts[lower.cols]
        a = np.repeat(np.arange(lower.cols.size), per_a)
        # upper's blocks in row m are contiguous, from the start of that row
        offsets = np.arange(a.size) - np.repeat(np.cumsum(per_a) - per_a, per_a)
        b = (np.cumsum(counts) - counts)[lower.cols[a]] + offsets
        key = lower.rows[a] * cells_per_degree[k] + upper.cols[b]
        order = np.argsort(key, kind="stable")
        a, b = a[order], b[order]
        pairs.append((_frozen(a), _frozen(b), _frozen(_first_of_runs(key[order]).nonzero()[0])))
    return tuple(pairs)


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a sorted array's entry differs from the one before it."""
    first = np.ones(sorted_keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


class TwistedComplex(_ReadOnly):
    """A twisted chain complex, each boundary map stored as its nonzero blocks.

    blocks[k-1] holds bd_k, of shape (rank*c_{k-1}, rank*c_k), for
    k = 1..dimension (see Blocks).  TwistedComplex(rank, cells_per_degree,
    boundaries) takes dense maps and cuts each into its nonzero blocks;
    build_twisted_boundary assembles the blocks directly.  Construction
    raises SchemaError naming the value for a rank or cell count that is not
    an integer (a bool or 1.0 is not) or is below 1 or 0, ShapeMismatch
    unless there is one map per degree k >= 1, each (dims[k-1], dims[k]),
    and SchemaError naming the degree for an entry that is not a finite
    integer or float, so every instance is well-shaped and finite.
    boundary(k) densifies bd_k from the blocks on every call, for the
    Laplacian route; nothing else is kept.  Values are immutable after
    construction (the fields are read-only); instances are safe to share
    across threads, and complexes compare by identity.
    """

    __slots__ = ("rank", "cells_per_degree", "blocks", "_pairs")
    rank: int
    cells_per_degree: tuple[int, ...]
    blocks: tuple[Blocks, ...]
    # the _chain_pairs of the blocks, which validate reads
    _pairs: tuple

    def __init__(self, rank: int, cells_per_degree: Sequence[int],
                 boundaries: Sequence[np.ndarray]):
        rank = _as_int(rank, "rank", low=1)
        cells = tuple(_as_int(c, "a cell count", low=0) for c in cells_per_degree)
        if len(boundaries) != len(cells) - 1:
            raise ShapeMismatch(f"{len(boundaries)} boundary maps "
                                f"for a complex of dimension {len(cells) - 1}")
        blocks = []
        for k, b in enumerate(boundaries, start=1):
            b = _real_array(b, f"bd_{k}", SchemaError)
            expected = (rank * cells[k - 1], rank * cells[k])
            if b.shape != expected:
                raise ShapeMismatch(f"bd_{k} has shape {b.shape}, expected {expected}")
            grid = b.reshape(cells[k - 1], rank, cells[k], rank).transpose(0, 2, 1, 3)
            rows, cols = np.argwhere(np.any(grid != 0.0, axis=(2, 3))).T
            blocks.append(Blocks(_frozen(rows), _frozen(cols), grid[rows, cols]))
        self._store(rank, cells, blocks, _chain_pairs(blocks, cells))

    @classmethod
    def _assembled(cls, rank: int, cells_per_degree: tuple[int, ...],
                   blocks: Sequence[Blocks], pairs: tuple) -> "TwistedComplex":
        """A complex from well-shaped Blocks and their pairs (build_twisted_boundary)."""
        cplx = cls.__new__(cls)
        cplx._store(rank, cells_per_degree, blocks, pairs)
        return cplx

    def _store(self, rank: int, cells_per_degree: tuple[int, ...],
               blocks: Sequence[Blocks], pairs: tuple) -> None:
        for k, b in enumerate(blocks, start=1):
            if not np.isfinite(b.values).all():
                raise SchemaError(f"bd_{k} has an entry that is not finite")
            b.values.setflags(write=False)
        for name, value in (("rank", rank), ("cells_per_degree", cells_per_degree),
                            ("blocks", tuple(blocks)), ("_pairs", pairs)):
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return len(self.cells_per_degree) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        """Vector-space dimension rank*c_k of each chain degree."""
        return tuple(self.rank * c for c in self.cells_per_degree)

    def boundary(self, k: int) -> np.ndarray:
        """bd_k as a dense read-only matrix for 1 <= k <= dimension, built from
        the blocks on each call; a zero-shaped matrix outside that range."""
        if 1 <= k <= self.dimension:
            return _densify(self.blocks[k - 1], self.rank,
                            self.cells_per_degree[k - 1], self.cells_per_degree[k])
        if k <= 0:
            return np.zeros((0, self.dims[0] if k == 0 else 0))
        return np.zeros((self.dims[self.dimension], 0))


def _densify(blocks: Blocks, n: int, n_rows: int, n_cols: int) -> np.ndarray:
    """The dense (n*n_rows, n*n_cols) matrix of `blocks`, read-only."""
    mat = np.zeros((n * n_rows, n * n_cols))
    mat.reshape(n_rows, n, n_cols, n).transpose(0, 2, 1, 3)[blocks.rows, blocks.cols] = \
        blocks.values
    return _frozen(mat)


class ValidationReport(NamedTuple):
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
    """Assemble the twisted boundary blocks and verify bd o bd = 0.

    What depends on the structure alone is compiled once per CellStructure
    (CellStructure._layout), whose construction checked every word.  A
    build then multiplies out each distinct word once, in order of first
    use, by rho._product (evaluate without its letter check), forms every
    coeff * image of a degree in one batch, and sums them by one np.add.at
    into that degree's distinct (target, cell) blocks, from 0.0 in
    incidence order, so repeated pairs add up exactly as a per-incidence +=
    into a dense bd_k would.  The cost is O(incidences * n^2) and no dense
    matrix is formed.  Raises SchemaError if a word names a generator rho
    lacks or a sum is not finite, and NonChainComplex if any composition
    exceeds 1e-12 * (1 + |bd_{k-1}|_inf * |bd_k|_inf).
    """
    n = rho.rank
    layout = cells._layout
    images = np.array([rho._product(word) for word in layout.words]).reshape(-1, n, n)
    blocks = []
    # an overflowing sum becomes inf here and is refused by the complex
    with np.errstate(over="ignore", invalid="ignore"):
        for degree in layout.degrees:
            values = np.zeros((degree.rows.size, n, n))
            np.add.at(values, degree.block, degree.coeffs[:, None, None] * images[degree.words])
            blocks.append(Blocks(degree.rows, degree.cols, values))
    cplx = TwistedComplex._assembled(n, cells.cells_per_degree, blocks, layout.pairs)
    for k, residual, bound in validate(cplx).residuals:
        if residual > bound:
            raise NonChainComplex(
                f"bd_{k - 1} @ bd_{k} has residual {residual:.3e} > {bound:.3e}")
    return cplx


def validate(cplx: TwistedComplex) -> ValidationReport:
    """Chain residuals max|bd_{k-1} @ bd_k| of a complex, from its blocks; never raises.

    Each block of the product is the sum, over the middle cells the two maps
    share, of the products of their blocks: O(blocks * rank^3) work, where
    blocks counts the pairs of blocks that share a middle cell.  No dense
    matrix is formed.
    """
    residuals = []
    for k in range(2, cplx.dimension + 1):
        lower, upper = cplx.blocks[k - 2], cplx.blocks[k - 1]
        a, b, starts = cplx._pairs[k - 2]
        residual = float(np.abs(np.add.reduceat(
            lower.values[a] @ upper.values[b], starts)).max()) if a.size else 0.0
        bound = CHAIN_TOL * (1.0 + _opnorm(lower, cplx.cells_per_degree[k - 2])
                             * _opnorm(upper, cplx.cells_per_degree[k - 1]))
        residuals.append((k, residual, bound))
    return ValidationReport(residuals=tuple(residuals))


def _opnorm(blocks: Blocks, n_row_cells: int) -> float:
    """The infinity norm (largest absolute row sum) of the map `blocks` store."""
    if not blocks.rows.size:
        return 0.0
    row_sums = np.zeros((n_row_cells, blocks.values.shape[1]))
    np.add.at(row_sums, blocks.rows, np.abs(blocks.values).sum(axis=2))
    return float(row_sums.max())


def rotation(theta: float) -> np.ndarray:
    """2 x 2 rotation by theta (an element of SO(2))."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@lru_cache(maxsize=None)
def _preset_cells(name: str) -> CellStructure:
    """The cells of preset `name`, which read none of its options: built at
    the first call and shared, with the layout their first build compiles."""
    empty: GroupWord = ()
    word_a: GroupWord = ((0, 1),)
    word_b: GroupWord = ((1, 1),)
    incidences = {
        "circle": (((),), (((0, 1, word_a), (0, -1, empty)),)),
        "torus2": (((),),
                   (((0, 1, word_a), (0, -1, empty)),
                    ((0, 1, word_b), (0, -1, empty))),
                   # bd(f) = (1 - b) a + (a - 1) b, the commutator boundary
                   (((0, 1, empty), (0, -1, word_b), (1, 1, word_a), (1, -1, empty)),)),
        "interval": (((), ()), (((1, 1, empty), (0, -1, empty)),)),
        "point": (((),),),
    }[name]
    return CellStructure(dimension=len(incidences) - 1,
                         cells_per_degree=tuple(map(len, incidences)), incidences=incidences)


def circle(*, theta: float = 1.0) -> tuple[CellStructure, Representation]:
    """One 0-cell, one 1-cell, bd(e) = (t - 1) e0 with rho(t) the rotation by
    theta; acyclic iff theta != 0."""
    _angle(theta, "theta")
    return _preset_cells("circle"), Representation(2, [rotation(theta)])


def torus2(*, alpha: float = 1.0, beta: float = 0.3) -> tuple[CellStructure, Representation]:
    """One 0-cell, 1-cells a, b, a 2-cell with bd(f) = (1 - b) a + (a - 1) b;
    rho(a), rho(b) rotate by alpha and beta; acyclic unless both are 0."""
    _angle(alpha, "alpha")
    _angle(beta, "beta")
    return _preset_cells("torus2"), Representation(2, [rotation(alpha), rotation(beta)])


def interval(*, rank: int = 1) -> tuple[CellStructure, Representation]:
    """Two 0-cells, one 1-cell, trivial coefficients of the given rank."""
    return _preset_cells("interval"), Representation(rank, [])


def point(*, rank: int = 1) -> tuple[CellStructure, Representation]:
    """A single 0-cell, trivial coefficients of the given rank."""
    return _preset_cells("point"), Representation(rank, [])


PRESETS = {"circle": circle, "torus2": torus2, "interval": interval, "point": point}
_build = _family("preset", PRESETS)


def preset(name: str, **params) -> tuple[CellStructure, Representation]:
    """PRESETS[name](**params); BadParameter names any keyword it does not read."""
    return _build(name, params)


def build_preset(name: str, **params) -> TwistedComplex:
    """preset() followed by build_twisted_boundary()."""
    cells, rho = preset(name, **params)
    return build_twisted_boundary(cells, rho)


def cyclic_cover(cells: CellStructure, orders: Sequence[int]) -> CellStructure:
    """The finite cover of `cells` for Z/orders[0] x Z/orders[1] x ..., generator
    i acting as the unit of Z/orders[i].

    The points p of the group are numbered row-major (np.ndindex order), and
    cell c lifts to the cells c * size + index(p).  An incidence (target,
    coeff, word) of c lifts at p by walking the word from p, a letter (i, +-1)
    moving coordinate i by +-1, to a point q; the lift is (target * size +
    index(q), coeff, the letters that wrapped a coordinate around, in order).
    So cyclic_cover(circle cells, (N,)) is the N-gon, twisted on its closing
    edge, and cyclic_cover(torus2 cells, (n, n)) the cubical n x n torus; a
    build with the base's representation restricts it to the cover's group.
    Raises BadParameter for orders that are not a sequence, an order that is
    not a positive integer, and a word whose generator has no order.
    """
    if not isinstance(orders, Iterable):
        raise BadParameter(f"cover orders must be a sequence of integers, got {orders!r}")
    orders = tuple(_as_int(order, "a cover order", BadParameter, low=1) for order in orders)
    points = list(np.ndindex(*orders))
    size, index = len(points), {p: m for m, p in enumerate(points)}

    def lift(target: int, coeff: int, word: GroupWord, p: tuple[int, ...]):
        q, kept = list(p), []
        for gen, exp in word:
            if gen >= len(orders):
                raise BadParameter(f"word {word!r} uses generator {gen}, "
                                   f"which has no order in {orders}")
            q[gen] += exp
            if not 0 <= q[gen] < orders[gen]:
                q[gen] %= orders[gen]
                kept.append((gen, exp))
        return target * size + index[tuple(q)], coeff, tuple(kept)

    return CellStructure(
        dimension=cells.dimension,
        cells_per_degree=tuple(c * size for c in cells.cells_per_degree),
        incidences=tuple(tuple(tuple(lift(*incidence, p) for incidence in entries)
                               for entries in per_cell for p in points)
                         for per_cell in cells.incidences))


# JSON input schema.  Field names are fixed; unknown fields are rejected.
#
# { "dimension": n, "rank": n_rho, "generators": g, "rep": [[...], ...],
#   "cells": [ { "dim": k,
#                "boundary": [ {"cell": j, "coeff": c, "word": [[gen, exp], ...]} ] } ] }

_TOP_FIELDS = {"dimension", "rank", "generators", "rep", "cells"}
_CELL_FIELDS = {"dim", "boundary"}
_INCIDENCE_FIELDS = {"cell", "coeff", "word"}


def _object(value, fields: set, where: str) -> None:
    """Refuse, with SchemaError naming `where`, a value not a JSON object of exactly `fields`."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    if value.keys() != fields:
        shown = [f"{kind} fields {sorted(names)}" for kind, names in
                 (("unknown", value.keys() - fields), ("missing", fields - value.keys())) if names]
        raise SchemaError(f"{where}: {'; '.join(shown)}")


def _list(value, where: str) -> list:
    """value, a JSON list; SchemaError names `where`."""
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a list")
    return value


def structure_from_json(data: dict) -> tuple[CellStructure, Representation]:
    """Parse the fixed JSON schema into (CellStructure, Representation).

    Checked here is the document's shape, and the integers that sort its cells
    by degree; Representation judges rank and rep, CellStructure each cell,
    coeff and word, as they do from Python."""
    _object(data, _TOP_FIELDS, "the document")
    dimension = _as_int(data["dimension"], "dimension")
    n_gens = _as_int(data["generators"], "generators")
    rep = data["rep"]
    if not isinstance(rep, list) or len(rep) != n_gens:
        raise SchemaError("rep must list exactly `generators` matrices")
    rho = Representation(data["rank"], rep)

    per_degree = [[] for _ in range(dimension + 1)]
    for j, cell in enumerate(_list(data["cells"], "cells")):
        _object(cell, _CELL_FIELDS, f"cells[{j}]")
        k = _as_int(cell["dim"], "cell dim")
        if not 0 <= k <= dimension:
            raise SchemaError(f"cell dim {k} exceeds complex dimension {dimension}")
        entries = []
        for m, inc in enumerate(_list(cell["boundary"], f"cells[{j}].boundary")):
            _object(inc, _INCIDENCE_FIELDS, f"cells[{j}].boundary[{m}]")
            word = inc["word"]
            if not (isinstance(word, list) and all(isinstance(x, list) for x in word)):
                raise SchemaError(f"an incidence word must be a list of letters, got {word!r}")
            entries.append((inc["cell"], inc["coeff"], tuple(map(tuple, word))))
        per_degree[k].append(entries)

    return CellStructure(dimension, [len(group) for group in per_degree], per_degree), rho


def complex_from_json(source: str | Path | dict) -> TwistedComplex:
    """Load a twisted complex from a JSON file path, JSON text, or parsed dict.

    Raises SchemaError naming the source when a file holds no JSON, and when
    a string is neither an existing file nor JSON text.
    """
    if isinstance(source, dict):
        data = source
    else:
        text, path = str(source), None
        try:
            if Path(text).exists():
                text, path = Path(text).read_text(), text
        except OSError:
            pass  # raw JSON text, not a path
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{text} is not UTF-8 text: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            if path is not None:
                raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
            shown = text if len(text) <= 120 else text[:117] + "..."
            raise SchemaError(f"{shown!r} is neither an existing file "
                              f"nor JSON text ({exc})") from exc
    cells, rho = structure_from_json(data)
    return build_twisted_boundary(cells, rho)
