import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from torsionlab import (
    CellStructure,
    Representation,
    TwistedComplex,
    build_preset,
    build_twisted_boundary,
    complex_from_json,
    cyclic_cover,
    determinant_oracle,
    factorize,
    log_reidemeister,
    preset,
    rotation,
    validate,
)
from torsionlab.errors import (
    BadParameter,
    BadRepresentation,
    NonChainComplex,
    NotAcyclic,
    SchemaError,
    ShapeMismatch,
)
from torsionlab.complexes import structure_from_json

HUGE_COEFFICIENT = Path(__file__).parent / "huge_coefficient.json"
BAD_WORD_EXPONENT = Path(__file__).parent / "bad_word_exponent.json"
TWO_VERTEX_CIRCLE = Path(__file__).parent / "two_vertex_circle.json"


def test_circle_boundary_quarter_turn():
    cx = build_preset("circle", theta=math.pi / 2)
    expected = np.array([[-1.0, -1.0], [1.0, -1.0]])
    assert np.max(np.abs(cx.boundary(1) - expected)) < 1e-14


def test_trivial_representation_gives_integer_boundary():
    cells, _ = preset("torus2", alpha=1.0, beta=0.5)
    cx = build_twisted_boundary(cells, Representation(1, [np.eye(1), np.eye(1)]))
    # with rho == 1 the commutator boundary of the 2-cell cancels to zero
    assert np.max(np.abs(cx.boundary(2))) == 0.0
    assert np.max(np.abs(cx.boundary(1))) == 0.0
    cells, _ = preset("interval")
    cx = build_twisted_boundary(cells, Representation(1, []))
    assert np.array_equal(cx.boundary(1), np.array([[-1.0], [1.0]]))


def test_torus_chain_property_brute_force():
    for alpha, beta in ((1.0, 0.3), (2.2, 4.4), (0.0, 1.9)):
        cx = build_preset("torus2", alpha=alpha, beta=beta)
        residual = np.max(np.abs(cx.boundary(1) @ cx.boundary(2)))
        assert residual < 1e-13


def test_torus_fox_derivative_blocks():
    # bd(f) = (1 - b) a + (a - 1) b in the cell-major block layout
    alpha, beta = 1.1, 0.4
    cx = build_preset("torus2", alpha=alpha, beta=beta)
    bd2 = cx.boundary(2)
    assert np.max(np.abs(bd2[0:2, :] - (np.eye(2) - rotation(beta)))) < 1e-14
    assert np.max(np.abs(bd2[2:4, :] - (rotation(alpha) - np.eye(2)))) < 1e-14


def test_block_shapes():
    cx = build_preset("torus2", alpha=1.0, beta=0.3)
    assert cx.boundary(1).shape == (2, 4)
    assert cx.boundary(2).shape == (4, 2)
    assert cx.dims == (2, 4, 2)


def test_representation_rejects_non_orthogonal():
    with pytest.raises(BadRepresentation):
        Representation(2, [np.array([[1.0, 0.1], [0.0, 1.0]])])
    for bad in (np.nan, np.inf):
        with pytest.raises(BadRepresentation, match="not orthogonal"):
            Representation(1, [np.array([[bad]])])
    with pytest.raises(BadRepresentation,
                       match=r"^generator 1 has shape \(3, 3\), expected \(2, 2\)$"):
        Representation(2, [np.eye(2), np.eye(3)])


def test_representations_compare_by_identity():
    # a generated __eq__ or __hash__ would compare the tuples of image arrays and raise
    a, b = Representation(2, [rotation(1.0)]), Representation(2, [rotation(1.0)])
    assert a != b and not a == b
    assert a == a
    assert {a, b, a} == {a, b}


def test_non_chain_complex_raises():
    cells = CellStructure(
        dimension=2, cells_per_degree=(1, 1, 1),
        incidences=(((),),
                    (((0, 1, ()),),),
                    (((0, 1, ()),),)),
    )
    with pytest.raises(NonChainComplex):
        build_twisted_boundary(cells, Representation(1, []))


def test_preset_guards():
    # the trivial angles build; both torsion routes refuse them, naming degree 0
    # (Laplacian route) and the first degree the elimination cannot pivot (oracle)
    for name, params, betti, oracle_degree in (
            ("circle", {"theta": 0.0}, [2, 2], 1),
            ("torus2", {"alpha": 0.0, "beta": 0.0}, [2, 4, 2], 2)):
        cx = build_preset(name, **params)
        message = f"degree 0 has Betti number 2 (Betti numbers {betti})"
        with pytest.raises(NotAcyclic, match=f"^{re.escape(message)}$"):
            factorize(cx).tr_logs
        with pytest.raises(NotAcyclic, match=f"^not acyclic in degree {oracle_degree}: "):
            determinant_oracle(cx)
    with pytest.raises(BadParameter):
        preset("circle", theta=7.0)
    with pytest.raises(BadParameter):
        preset("nonagon")


def test_preset_rejects_keywords_the_preset_does_not_read():
    for name, params, unread in (("circle", {"theta": 1.0, "alpha": 2.0}, "alpha"),
                                 ("torus2", {"rank": 2}, "rank"),
                                 ("point", {"theta": 1.0, "beta": 0.3}, "beta, theta")):
        with pytest.raises(BadParameter, match=f"preset {name} does not read {unread}$"):
            preset(name, **params)
    # defaults come from the presets' signatures: circle(theta=1), torus2(1, 0.3)
    assert np.array_equal(build_preset("circle").boundary(1),
                          build_preset("circle", theta=1.0).boundary(1))
    assert np.array_equal(build_preset("torus2").boundary(2),
                          build_preset("torus2", alpha=1.0, beta=0.3).boundary(2))


def test_validate_flags_corrupted_degree():
    good = build_preset("torus2", alpha=1.0, beta=0.3)
    assert validate(good).ok
    assert validate(good).max_residual < 1e-12
    bad = [good.boundary(k).copy() for k in (1, 2)]
    bad[1][0, 0] += 0.25
    corrupted = TwistedComplex(rank=good.rank,
                               cells_per_degree=good.cells_per_degree,
                               boundaries=tuple(bad))
    report = validate(corrupted)
    assert not report.ok
    assert report.flagged_degrees == (2,)


def test_mis_shaped_complex_is_refused_at_construction():
    good = build_preset("torus2", alpha=1.0, beta=0.3)  # dims (2, 4, 2)
    bd1, bd2 = good.boundary(1), good.boundary(2)
    with pytest.raises(ShapeMismatch, match="1 boundary maps for a complex of dimension 2"):
        TwistedComplex(rank=2, cells_per_degree=(1, 2, 1), boundaries=(bd1,))
    with pytest.raises(ShapeMismatch, match=r"bd_1 has shape \(4, 2\), expected \(2, 4\)"):
        TwistedComplex(rank=2, cells_per_degree=(1, 2, 1), boundaries=(bd1.T.copy(), bd2))
    with pytest.raises(ShapeMismatch, match=r"bd_2 has shape \(4, 1\), expected \(4, 2\)"):
        TwistedComplex(rank=2, cells_per_degree=(1, 2, 1), boundaries=(bd1, bd2[:, :1].copy()))
    # a 2 x 1 bd_1 over dims (1, 1), which both torsion routes used to take values of
    with pytest.raises(ShapeMismatch, match=r"bd_1 has shape \(2, 1\), expected \(1, 1\)"):
        TwistedComplex(rank=1, cells_per_degree=(1, 1), boundaries=(np.ones((2, 1)),))
    # a cell structure whose counts and incidence lists do not agree
    for counts, incidences, shown in (
            ((1,), ((), ()), "cells_per_degree must have length dimension + 1"),
            ((1, 1), ((),), "incidences must have one entry per degree"),
            ((1, 1), (((),), ()), "degree 1: incidence list does not match cell count"),
            ((1, 1), ((((0, 1, ()),),), ((),)), "0-cells cannot carry boundary incidences")):
        with pytest.raises(SchemaError, match=f"^{re.escape(shown)}$"):
            CellStructure(dimension=1, cells_per_degree=counts, incidences=incidences)


def test_complex_refuses_a_rank_or_cell_count_that_is_not_an_integer():
    # before, (1.7, 1) was read as cells (1, 1) and log_reidemeister returned log 2,
    # and a rank of 1.0 or True escaped as numpy's TypeError
    for rank, cells, shown in ((1, (1.7, 1), "a cell count must be an integer, got 1.7"),
                               (1.0, (1, 1), "rank must be an integer, got 1.0"),
                               (True, (1, 1), "rank must be an integer, got True"),
                               (0, (1, 1), "rank must be positive, got 0"),
                               (1, (1, -1), "a cell count must be non-negative, got -1")):
        with pytest.raises(SchemaError, match=f"^{re.escape(shown)}$") as info:
            TwistedComplex(rank, cells, [[[2.0]]])
        assert info.value.exit_code == 2
    # a CellStructure reads its dimension and cell counts the same way: before, the
    # first three passed, and log_reidemeister then escaped as numpy's TypeError or,
    # for dimension True, returned log 2
    for dimension, cells, shown in ((1, (1.0, True), "a cell count must be an integer, got 1.0"),
                                    (1, (1, True), "a cell count must be an integer, got True"),
                                    (True, (1, 1), "dimension must be an integer, got True"),
                                    (-1, (), "dimension must be non-negative, got -1")):
        with pytest.raises(SchemaError, match=f"^{re.escape(shown)}$") as info:
            CellStructure(dimension=dimension, cells_per_degree=cells,
                          incidences=(((),), (((0, 2, ()),),)))
        assert info.value.exit_code == 2
    cx = TwistedComplex(np.int64(1), (np.int32(1), 1), [[[2.0]]])
    assert type(cx.rank) is int and all(type(c) is int for c in cx.cells_per_degree)
    assert determinant_oracle(cx) == math.log(2.0)


def test_cell_structure_refuses_non_finite_coefficients():
    for coeff in (math.nan, math.inf, -math.inf, 0.5):
        shown = f"degree 1 cell 0: the coefficient on target 0 must be an integer, got {coeff!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(shown)}$"):
            CellStructure(dimension=1, cells_per_degree=(1, 1),
                          incidences=(((),), (((0, coeff, ()),),)))


def test_targets_and_coefficients_are_integers_from_python_and_json():
    # one rule, in CellStructure: before, JSON refused these with messages of its own,
    # and CellStructure built all but the target True (refused as out of range), a
    # target of 0.5 as target 0 (log T = -0.08404 on the circle at theta = 1) and a
    # coefficient of True or 1.0 as 1
    for target, coeff, shown in ((0.5, 1, "target must be an integer, got 0.5"),
                                 (True, 1, "target must be an integer, got True"),
                                 (0, True, "the coefficient on target 0 must be an integer, "
                                           "got True"),
                                 (0, 1.0, "the coefficient on target 0 must be an integer, "
                                          "got 1.0")):
        data = _circle_json(1.0)
        data["cells"][1]["boundary"][0].update(cell=target, coeff=coeff)
        for build in (lambda: CellStructure(1, (1, 1), (((),), (((target, coeff, ((0, 1),)),
                                                                  (0, -1, ())),))),
                      lambda: complex_from_json(json.dumps(data))):
            with pytest.raises(SchemaError, match=f"^degree 1 cell 0: {re.escape(shown)}$") as got:
                build()
            assert got.type is SchemaError and got.value.exit_code == 2
    # numpy integers are integers, as in words
    cells = CellStructure(1, (1, 1), (((),), (((np.int64(0), np.int32(1), ((0, 1),)),
                                                (np.intp(0), np.int64(-1), ())),)))
    assert log_reidemeister(build_twisted_boundary(cells, Representation(2, [rotation(1.0)]))) \
        == log_reidemeister(build_preset("circle", theta=1.0))


def test_cell_structure_keeps_tuples_of_the_callers_lists():
    # before, the structure kept these lists: hash raised TypeError, and an entry
    # appended afterwards, at row 5 of 1, built a complex that failed with IndexError
    incidences = [[()], [[(0, 1, ((0, 1),)), (0, -1, ())]]]
    counts = [1, 1]
    cells = CellStructure(dimension=1, cells_per_degree=counts, incidences=incidences)
    key = hash(cells)
    incidences[1][0].append((5, 1, ()))
    counts.append(1)
    assert hash(cells) == key
    assert cells == preset("circle", theta=1.0)[0]
    cx = build_twisted_boundary(cells, Representation(2, [rotation(1.0)]))
    reference = build_preset("circle", theta=1.0)
    assert _same_bits(cx.boundary(1), reference.boundary(1))
    assert log_reidemeister(cx) == log_reidemeister(reference)
    assert determinant_oracle(cx) == determinant_oracle(reference)


def test_complex_refuses_non_finite_entries():
    # a NaN or inf in a dense map: before, the SVD route ended in LinAlgError
    good = build_preset("torus2", alpha=1.0, beta=0.3)
    for bad in (math.nan, math.inf, -math.inf):
        maps = [good.boundary(k).copy() for k in (1, 2)]
        maps[1][1, 0] = bad
        with pytest.raises(SchemaError, match="^bd_2 has an entry that is not finite$"):
            TwistedComplex(rank=2, cells_per_degree=(1, 2, 1), boundaries=maps)
    # two finite incidences on one (target, cell) pair whose sum overflows, with no
    # RuntimeWarning (pytest makes it an error): before, a warning and Betti numbers [2, 2]
    with pytest.raises(SchemaError, match="^bd_1 has an entry that is not finite$"):
        complex_from_json(HUGE_COEFFICIENT)
    # a coefficient beyond the float range: before, an OverflowError
    data = _circle_json(1.0)
    data["cells"][1]["boundary"][0]["coeff"] = 10 ** 400
    with pytest.raises(SchemaError, match="^degree 1 cell 0: the coefficient on target 0 "
                                          "does not fit a float$"):
        complex_from_json(data)


def _circle_json(theta: float) -> dict:
    c, s = math.cos(theta), math.sin(theta)
    return {
        "dimension": 1,
        "rank": 2,
        "generators": 1,
        "rep": [[[c, -s], [s, c]]],
        "cells": [
            {"dim": 0, "boundary": []},
            {"dim": 1, "boundary": [
                {"cell": 0, "coeff": 1, "word": [[0, 1]]},
                {"cell": 0, "coeff": -1, "word": []},
            ]},
        ],
    }


def test_json_round_trip_matches_preset():
    theta = 1.2
    via_json = complex_from_json(json.dumps(_circle_json(theta)))
    via_preset = build_preset("circle", theta=theta)
    assert np.max(np.abs(via_json.boundary(1) - via_preset.boundary(1))) < 1e-14


def test_json_rejects_unknown_fields():
    data = _circle_json(1.0)
    data["extra"] = 1
    with pytest.raises(SchemaError, match=r"^the document: unknown fields \['extra'\]$"):
        complex_from_json(data)
    data = _circle_json(1.0)
    data["cells"][0]["color"] = "blue"
    del data["cells"][0]["dim"]
    with pytest.raises(SchemaError, match=r"^cells\[0\]: unknown fields \['color'\]; "
                                          r"missing fields \['dim'\]$"):
        complex_from_json(data)
    # the document's shape, each object with exactly its fields and each list a list,
    # is the one thing structure_from_json checks itself
    for spoil, shown in ((lambda d: [d.pop(key) for key in ("rep", "cells")],
                          "the document: missing fields ['cells', 'rep']"),
                         (lambda d: d["cells"][1]["boundary"][1].pop("word"),
                          "cells[1].boundary[1]: missing fields ['word']"),
                         (lambda d: d["cells"][1]["boundary"].append(3),
                          "cells[1].boundary[2] must be an object"),
                         (lambda d: d["cells"][1].update(boundary={}),
                          "cells[1].boundary must be a list"),
                         (lambda d: d.update(cells=None), "cells must be a list")):
        data = _circle_json(1.0)
        spoil(data)
        with pytest.raises(SchemaError, match=f"^{re.escape(shown)}$"):
            complex_from_json(data)
    with pytest.raises(SchemaError, match="^the document must be an object$"):
        structure_from_json([])
    # the rank is Representation's to judge, with the class it raises from Python
    for rank, shown in ((1.5, "rank must be an integer, got 1.5"),
                        (True, "rank must be an integer, got True"),
                        (0, "rank must be positive, got 0")):
        data = _circle_json(1.0)
        data["rank"] = rank
        with pytest.raises(BadRepresentation, match=f"^{re.escape(shown)}$") as info:
            complex_from_json(data)
        assert info.value.exit_code == 2


BAD_LETTERS = ((0, 2), (0, 0), (0, 1.5), (0, -2), (0.7, -1), (-1, 1), (0, True), (0,), (0, 1, 1))


def test_cell_structure_refuses_bad_words():
    # before, every exponent other than 1 was taken as -1: the word ((0, 2),) on the
    # circle at theta = 1 gave -0.08404, the value for t^-1
    for letter in BAD_LETTERS:
        with pytest.raises(SchemaError, match=r"^degree 1 cell 0: word .* is not a tuple of "
                                              r"\(generator >= 0, exponent \+-1\) integer pairs$"):
            CellStructure(dimension=1, cells_per_degree=(1, 1),
                          incidences=(((),), (((0, 1, (letter,)), (0, -1, ())),)))
    for word in ([(0, 1)], ((0, 1), [0, 1]), "a"):
        with pytest.raises(SchemaError):
            CellStructure(dimension=1, cells_per_degree=(1, 1),
                          incidences=(((),), (((0, 1, word),),)))
    # numpy integers are integers
    cells = CellStructure(dimension=1, cells_per_degree=(1, 1),
                          incidences=(((),), (((0, 1, ((np.int64(0), np.int64(1)),)),
                                                (0, -1, ())),)))
    cx = build_twisted_boundary(cells, Representation(2, [rotation(1.0)]))
    assert _same_bits(cx.boundary(1), build_preset("circle", theta=1.0).boundary(1))


def test_evaluate_refuses_the_letters_cell_structure_refuses():
    # before, evaluate(((0, 2),)) returned rho(a)^T = rho(a)^-1, reading every exponent
    # other than 1 as -1, and evaluate(((0.0, 1),)) escaped as a raw TypeError
    rho = Representation(2, [rotation(1.0)])
    for letter in BAD_LETTERS + ((0.0, 1),):
        word = ((0, 1), letter)
        with pytest.raises(SchemaError, match=f"^word {re.escape(repr(word))} is not a tuple of "
                                              r"\(generator >= 0, exponent \+-1\) integer pairs$"):
            rho.evaluate(word)
    # numpy integers are integers, and a missing generator is still named
    assert _same_bits(rho.evaluate(((np.int64(0), np.int64(-1)),)), rotation(1.0).T)
    with pytest.raises(SchemaError, match="^word references generator 1, but only 1 exist$"):
        rho.evaluate(((1, 1),))


def test_json_rejects_bad_words():
    # the JSON path reaches the same check: before, [[0, 1.9]] was read as (0, 1)
    # and [[0.7, -1]] as (0, -1)
    for letter in [[0, 1.9], [0.7, -1], *map(list, BAD_LETTERS)]:
        data = _circle_json(1.0)
        data["cells"][1]["boundary"][0]["word"] = [letter]
        with pytest.raises(SchemaError, match=r"^degree 1 cell 0: word "):
            complex_from_json(data)
    for word in ([3, 1], [[0, 1], 5], "ab", None):
        data = _circle_json(1.0)
        data["cells"][1]["boundary"][0]["word"] = word
        with pytest.raises(SchemaError, match="^an incidence word must be a list of letters"):
            complex_from_json(data)
    # a generator the representation does not have: refused when its word is evaluated
    data = _circle_json(1.0)
    data["cells"][1]["boundary"][0]["word"] = [[3, 1]]
    with pytest.raises(SchemaError, match="^word references generator 3, but only 1 exist$"):
        complex_from_json(data)
    with pytest.raises(SchemaError, match=r"^degree 1 cell 0: word \(\(0, 2\),\) is not"):
        complex_from_json(BAD_WORD_EXPONENT)


def test_json_from_file(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(_circle_json(0.9)))
    cx = complex_from_json(path)
    assert cx.rank == 2
    assert cx.dims == (2, 2)


def test_json_source_neither_a_file_nor_json(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SchemaError, match=f"^'{re.escape(str(missing))}' is neither an "
                                          "existing file nor JSON text"):
        complex_from_json(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(broken))}: invalid JSON"):
        complex_from_json(broken)


def _reference_boundaries(cells, rho):
    """bd_k by one rho.evaluate and one += per incidence, in incidence order."""
    n = rho.rank
    mats = []
    for k in range(1, cells.dimension + 1):
        mat = np.zeros((n * cells.cells_per_degree[k - 1], n * cells.cells_per_degree[k]))
        for i, entries in enumerate(cells.incidences[k]):
            for target, coeff, word in entries:
                mat[target * n:(target + 1) * n, i * n:(i + 1) * n] += coeff * rho.evaluate(word)
        mats.append(mat)
    return mats


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _words_json() -> dict:
    """Rank 3, two generators: multi-letter words, negative exponents and
    repeated (target, cell) incidences whose blocks do not commute."""
    rng = np.random.default_rng(11)
    words = [[[0, 1], [1, -1]], [[1, 1], [0, 1], [0, -1]], [[0, -1], [1, -1], [0, 1]], []]
    cells = [{"dim": 0, "boundary": []} for _ in range(3)]
    for j in range(4):
        cells.append({"dim": 1, "boundary": [
            {"cell": (j + m) % 3, "coeff": c, "word": words[(j + m) % 4]}
            for m, c in enumerate((1, -2, 3, 1, -1, 2, -3))]})
    return {"dimension": 1, "rank": 3, "generators": 2,
            "rep": [_orthogonal(rng, 3).tolist() for _ in range(2)], "cells": cells}


def _assembly_cases():
    return [preset("circle", theta=1.3), preset("torus2", alpha=2.2, beta=0.7),
            preset("interval", rank=3), preset("point", rank=2),
            (cyclic_cover(preset("circle")[0], (9,)), Representation(2, [rotation(0.4)])),
            (cyclic_cover(preset("torus2")[0], (3, 3)),
             Representation(2, [rotation(1.1), rotation(2.9)])),
            structure_from_json(_words_json())]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_assembly_matches_per_incidence_loop_bitwise():
    for cells, rho in _assembly_cases():
        cx = build_twisted_boundary(cells, rho)
        ref = _reference_boundaries(cells, rho)
        assert cx.dimension == len(ref)
        # tobytes compares every bit, the sign of each zero included
        assert all(_same_bits(cx.boundary(k), r) for k, r in enumerate(ref, start=1))


def test_assembly_evaluates_each_word_once(monkeypatch):
    # each distinct word is multiplied out once, by the unchecked product:
    # CellStructure checked its letters at construction
    calls = []
    product = Representation._product

    def counted(self, word):
        calls.append(word)
        return product(self, word)

    monkeypatch.setattr(Representation, "_product", counted)
    for cells, rho in _assembly_cases():
        calls.clear()
        build_twisted_boundary(cells, rho)
        words = {word for per_cell in cells.incidences for entries in per_cell
                 for (_, _, word) in entries}
        assert sorted(calls) == sorted(words)


def test_preset_structure_is_shared_and_builds_bitwise():
    # each preset's cells are one object per process; its options reach the
    # representation only, which every call makes anew
    for name, options in (("circle", ({"theta": 1.0}, {"theta": 2.5})),
                          ("torus2", ({}, {"alpha": 0.7, "beta": 0.0})),
                          ("interval", ({}, {"rank": 3})),
                          ("point", ({"rank": 2}, {}))):
        (cells, rho), (again, rho2) = (preset(name, **params) for params in options)
        assert cells is again and rho is not rho2
        for params in options:
            cx = build_preset(name, **params)
            cells, rho = preset(name, **params)
            # a structure of its own compiles its own layout: the same bits
            own = build_twisted_boundary(
                CellStructure(dimension=cells.dimension, cells_per_degree=cells.cells_per_degree,
                              incidences=cells.incidences), rho)
            ref = _reference_boundaries(cells, rho)
            assert all(_same_bits(cx.boundary(k), own.boundary(k)) and
                       _same_bits(cx.boundary(k), r) for k, r in enumerate(ref, start=1))


def test_assembly_out_of_range_generator():
    # the first word in incidence order with a missing generator is the one named
    cells = CellStructure(
        dimension=1, cells_per_degree=(1, 2),
        incidences=(((),), (((0, 1, ((0, 1),)), (0, 1, ((3, 1),))),
                            ((0, 1, ((2, -1),)),))))
    rho = Representation(2, [rotation(0.5)])
    with pytest.raises(SchemaError) as ref:
        _reference_boundaries(cells, rho)
    with pytest.raises(SchemaError) as new:
        build_twisted_boundary(cells, rho)
    assert str(new.value) == str(ref.value) == "word references generator 3, but only 1 exist"


def test_cyclic_cover_spec():
    # orders of 1 wrap every letter, so each preset is its own trivial cover
    for name in ("circle", "torus2", "interval", "point"):
        cells, rho = preset(name)
        assert cyclic_cover(cells, (1,) * rho.n_generators) == cells
    # the 2-fold cover of the circle is the circle as two arcs
    two_gon = CellStructure(
        dimension=1, cells_per_degree=(2, 2),
        incidences=(((), ()),
                    (((1, 1, ()), (0, -1, ())),            # e0: v1 - v0
                     ((0, 1, ((0, 1),)), (1, -1, ())))))  # e1: t v0 - v1
    circle_cells, rho = preset("circle", theta=1e-11)
    assert cyclic_cover(circle_cells, (2,)) == two_gon
    stored = complex_from_json(TWO_VERTEX_CIRCLE)
    lifted = build_twisted_boundary(two_gon, rho)
    assert all(_same_bits(a, b) for blocks in zip(lifted.blocks, stored.blocks)
               for a, b in zip(*blocks))
    # a rectangular cover of the torus is a chain complex with log T = 0
    cells, rho = preset("torus2", alpha=1.0, beta=0.3)
    grid = build_twisted_boundary(cyclic_cover(cells, (2, 3)), rho)
    assert grid.cells_per_degree == (6, 12, 6)
    assert abs(determinant_oracle(grid)) < 1e-12
    # the int 3 where a sequence of orders belongs was a raw TypeError
    for orders, shown in (((0,), "0"), ((-1,), "-1"), ((2.5,), "2.5"), ((True,), "True"),
                          (3, "3")):
        with pytest.raises(BadParameter, match=f"got {re.escape(shown)}$"):
            cyclic_cover(circle_cells, orders)
    for base, orders, gen in ((circle_cells, (), 0), (cells, (3,), 1)):
        with pytest.raises(BadParameter, match=re.escape(
                f"word (({gen}, 1),) uses generator {gen}, which has no order in {orders}")):
            cyclic_cover(base, orders)
