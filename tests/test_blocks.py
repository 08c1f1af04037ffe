"""The block storage of twisted complexes against dense per-incidence references."""

import math

import numpy as np
import pytest

from torsionlab import (
    CellStructure,
    Representation,
    TwistedComplex,
    build_preset,
    build_twisted_boundary,
    cyclic_cover,
    determinant_oracle,
    preset,
    rotation,
    validate,
)
from torsionlab import complexes
from torsionlab.complexes import CHAIN_TOL, structure_from_json
from torsionlab.errors import NonChainComplex, NotAcyclic
from test_complexes import _orthogonal, _reference_boundaries, _same_bits, _words_json
from test_torsion import _reference_full_pivot_logdet

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = np.finfo(float).eps
CIRCLE, TORUS2 = preset("circle")[0], preset("torus2")[0]

words = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((-1, 1))), max_size=3).map(tuple)


@st.composite
def structures(draw):
    """A cell structure of dimension 1 to 3 with 0 to 4 cells a degree, and a
    representation of rank 1 to 3 on two generators.  Incidences repeat
    (target, cell) pairs, some with the same word and the opposite
    coefficient, so their blocks cancel exactly; most structures of
    dimension 2 or more are not chain complexes."""
    rank = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(0, 4), min_size=2, max_size=4))
    incidences = [((),) * counts[0]]
    for k in range(1, len(counts)):
        per_cell = []
        for _ in range(counts[k]):
            entries = []
            for _ in range(draw(st.integers(0, 4)) if counts[k - 1] else 0):
                target, coeff, word = (draw(st.integers(0, counts[k - 1] - 1)),
                                       draw(st.integers(-2, 2)), draw(words))
                entries.append((target, coeff, word))
                repeat = draw(st.sampled_from(("none", "cancel", "again")))
                if repeat == "cancel":
                    entries.append((target, -coeff, word))
                elif repeat == "again":
                    entries.append((target, draw(st.integers(-2, 2)), draw(words)))
            per_cell.append(tuple(entries))
        incidences.append(tuple(per_cell))
    cells = CellStructure(dimension=len(counts) - 1, cells_per_degree=tuple(counts),
                          incidences=tuple(incidences))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return cells, Representation(rank, [_orthogonal(rng, rank) for _ in range(2)])


def _reference_oracle(maps):
    """determinant_oracle by the dense reference elimination of each minor."""
    log_tau = 0.0
    columns = list(range(maps[-1].shape[1]))
    for k in range(len(maps), 0, -1):
        minor = maps[k - 1][:, columns]
        if minor.shape[0] < minor.shape[1]:
            raise NotAcyclic(f"not acyclic in degree {k}: {minor.shape[1]} columns, "
                             f"{minor.shape[0]} rows")
        pivot_rows, log_det = _reference_full_pivot_logdet(minor, k)
        log_tau += ((-1.0) ** (k + 1)) * log_det
        columns = [i for i in range(minor.shape[0]) if i not in set(pivot_rows)]
    if columns:
        raise NotAcyclic(f"not acyclic in degree 0: {len(columns)} rows left unpivoted")
    return log_tau


def _outcome(oracle, arg):
    """The oracle's value as its bits, or its NotAcyclic message."""
    try:
        return oracle(arg).hex()
    except NotAcyclic as exc:
        return str(exc)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(case=structures())
def test_blocks_agree_with_dense_maps_bitwise(case):
    cells, rho = case
    ref = _reference_boundaries(cells, rho)
    # the same maps given dense are cut into blocks and densify back bit for bit
    dense = TwistedComplex(rank=rho.rank, cells_per_degree=cells.cells_per_degree,
                           boundaries=ref)
    assert all(_same_bits(dense.boundary(k), r) for k, r in enumerate(ref, start=1))
    residuals = validate(dense).residuals
    # against the dense products and norms, up to the rounding of another order
    # of summation: m eps times the sum of |terms| for each of two sums of m terms
    for (_, residual, bound), lower, upper in zip(residuals, ref, ref[1:]):
        m = max(lower.shape[1], upper.shape[1])
        terms = float(np.max(np.abs(lower) @ np.abs(upper), initial=0.0))
        assert abs(residual - float(np.max(np.abs(lower @ upper), initial=0.0))) \
            <= 2 * m * EPS * terms
        norms = [float(np.max(np.sum(np.abs(a), axis=1), initial=0.0)) for a in (lower, upper)]
        assert bound == pytest.approx(CHAIN_TOL * (1.0 + norms[0] * norms[1]), rel=4 * m * EPS)
    try:
        cx = build_twisted_boundary(cells, rho)
    except NonChainComplex as exc:
        k, residual, bound = next(r for r in residuals if r[1] > r[2])
        assert str(exc) == f"bd_{k - 1} @ bd_{k} has residual {residual:.3e} > {bound:.3e}"
        return
    assert validate(cx).residuals == residuals
    assert validate(cx).flagged_degrees == validate(dense).flagged_degrees == ()
    assert all(_same_bits(cx.boundary(k), r) for k, r in enumerate(ref, start=1))
    oracle = _outcome(determinant_oracle, cx)
    assert oracle == _outcome(determinant_oracle, dense) == _outcome(_reference_oracle, ref)


def test_validate_and_oracle_never_densify(monkeypatch):
    # a copy densified before the patch: the complexes below have no dense map cached
    corrupted = [build_preset("torus2").boundary(k).copy() for k in (1, 2)]
    corrupted[1][0, 0] += 0.25
    cases = [build_preset("torus2"), build_preset("circle", theta=1.0),
             build_twisted_boundary(cyclic_cover(CIRCLE, (64,)),
                                    Representation(2, [rotation(2.5)])),
             build_twisted_boundary(cyclic_cover(TORUS2, (5, 5)),
                                    Representation(2, [rotation(1.0), rotation(0.3)])),
             build_twisted_boundary(*structure_from_json(_words_json())),
             TwistedComplex(rank=2, cells_per_degree=(1, 2, 1), boundaries=corrupted)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense boundary map was formed")

    monkeypatch.setattr(complexes, "_densify", forbidden)
    for cx in cases:
        validate(cx)
        try:
            determinant_oracle(cx)
        except NotAcyclic:
            pass
    # building does not densify either
    build_twisted_boundary(cyclic_cover(TORUS2, (3, 3)),
                           Representation(2, [rotation(1.1), rotation(2.9)]))
    assert validate(cases[-1]).flagged_degrees == (2,)


@pytest.mark.parametrize("cells, rho, exact", [
    # log(4 sin^2(theta/2)) = 1.28156898568832 at theta = 2.5, for every N
    (cyclic_cover(CIRCLE, (4096,)), Representation(2, [rotation(2.5)]),
     math.log(4.0 * math.sin(1.25) ** 2)),
    (cyclic_cover(TORUS2, (64, 64)), Representation(2, [rotation(1.0), rotation(0.3)]), 0.0),
], ids=["4096-gon", "64x64-grid"])
def test_oracle_at_scale_meets_the_closed_forms(cells, rho, exact):
    # dims (8192, 8192) and (8192, 16384, 8192): dense maps would take 0.5 and 2 GB
    assert abs(determinant_oracle(build_twisted_boundary(cells, rho)) - exact) < 1e-12
