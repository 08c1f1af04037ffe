import argparse
import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torsionlab import cli, errors
from torsionlab.cli import GLUING_OPTIONS, MODEL_OPTIONS, PRESET_OPTIONS, main, parse_beta
from torsionlab.errors import (
    BadParameter,
    BadRepresentation,
    NotAcyclic,
    NumericalLimit,
    PoleHit,
    SchemaError,
    TorsionLabError,
    UnsupportedPartition,
)
from torsionlab.verify import run_suites
from torsionlab.zetas import sphere2_power_coefficients


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_beta_grammar():
    assert parse_beta("1", 3) == (1.0, 1.0, 1.0)
    assert parse_beta("k", 3) == (0.0, 1.0, 2.0)
    assert parse_beta("lin:2,-1", 3) == (2.0, 1.0, 0.0)
    assert parse_beta("1,2,4", 3) == (1.0, 2.0, 4.0)
    with pytest.raises(SchemaError, match="^weight list has length 2, need 3$"):
        parse_beta("1,2", 3)
    with pytest.raises(SchemaError):
        parse_beta("lin:1", 3)
    with pytest.raises(SchemaError):
        parse_beta("spam", 3)
    # every weight must be finite, in the list form and the lin: form
    for spec, length in (("0,nan", 2), ("1,inf,2", 3), ("lin:inf,1", 3), ("lin:1,nan", 3),
                         ("lin:1e308,1e308", 3)):
        with pytest.raises(SchemaError):
            parse_beta(spec, length)


def test_torsion_circle_value(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--preset", "circle",
                           "--theta", "1.5707963", "--beta", "k")
    assert code == 0
    value = [line for line in out.splitlines() if line.startswith("log torsion")]
    assert abs(float(value[0].split()[-1]) - 0.693147) < 1e-5


def test_torsion_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--preset", "circle",
                           "--theta", "2.5", "--beta", "k", "--json")
    assert code == 0
    payload = json.loads(out)
    expected = math.log(4.0 * math.sin(1.25) ** 2)
    assert payload["log_torsion"] == pytest.approx(expected, abs=1e-12)
    # bit-exact round trip through JSON
    assert json.loads(json.dumps(payload)) == payload
    assert payload["log_torsion"] == json.loads(json.dumps(payload))["log_torsion"]


def test_torsion_small_angle_json(capsys):
    # 2 - 2 cos(3e-5) ~ 9e-10: tiny but nonzero Laplacian eigenvalues
    code, out, _ = run_cli(capsys, "torsion", "--preset", "circle",
                           "--theta", "3e-5", "--json")
    assert code == 0
    payload = json.loads(out)
    expected = math.log(4.0 * math.sin(1.5e-5) ** 2)
    assert abs(payload["log_torsion"] - expected) < 1e-12
    assert abs(payload["log_torsion"] - payload["log_torsion_minor_oracle"]) < 1e-12
    gap = 4.0 * math.sin(1.5e-5) ** 2
    for spectrum in payload["spectra"]:
        assert spectrum == pytest.approx([gap, gap], rel=1e-12)


def test_torsion_beta_warning(capsys):
    code, out, err = run_cli(capsys, "torsion", "--preset", "torus2",
                             "--alpha", "1.0", "--beta-angle", "0.3",
                             "--beta", "1,2,4")
    assert code == 0
    assert "not in span{1,k}" in err


def test_torsion_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1,')
    code, _, err = run_cli(capsys, "torsion", "--input", str(bad))
    assert code == 2
    assert "error" in err


def test_torsion_input_not_utf8_exit_2(capsys, tmp_path):
    # before, a UnicodeDecodeError traceback
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "torsion", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad} is not UTF-8 text: ") and err.count("\n") == 1


def test_torsion_not_acyclic_exit_3(capsys, tmp_path):
    data = {
        "dimension": 1, "rank": 1, "generators": 0, "rep": [],
        "cells": [{"dim": 0, "boundary": []},
                  {"dim": 0, "boundary": []},
                  {"dim": 1, "boundary": [
                      {"cell": 1, "coeff": 1, "word": []},
                      {"cell": 0, "coeff": -1, "word": []}]}],
    }
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "torsion", "--input", str(path))
    assert code == 3
    assert "degree 0" in err  # the failing degree is named


def test_oracle_refusal_exit_3(capsys):
    # two-vertex circle at theta = 1e-11: the Laplacian route accepts it, the
    # oracle's degree-1 pivot (about theta) is below its threshold
    path = Path(__file__).parent / "two_vertex_circle.json"
    code, out, err = run_cli(capsys, "torsion", "--input", str(path), "--json")
    assert code == 3 and out == ""
    assert "degree 1" in err


def _flags(options) -> set:
    return {"--" + name.replace("_", "-") for name in options}


# the options each model or preset reads, from the CLI's own tables, and a
# value for every option any of them reads
_MODEL_READS = {model: _flags(options) for model, options in MODEL_OPTIONS.items()}
_PRESET_READS = {preset: _flags(options) for preset, options in PRESET_OPTIONS.items()}
_MODEL_OPTION_VALUES = {"--L": "3", "--theta": "1.0", "--n": "3", "--R": "2",
                        "--condition": "absolute", "--rank": "2"}
_PRESET_OPTION_VALUES = {"--theta": "1.0", "--alpha": "1.0", "--beta-angle": "0.5",
                         "--rank": "2"}
_INAPPLICABLE = (
    [([command, "--model", model, *extra, option, _MODEL_OPTION_VALUES[option]], option, model)
     for command, extra in (("zeta", ["--s", "2"]), ("model-torsion", []))
     for model, reads in _MODEL_READS.items()
     for option in _MODEL_OPTION_VALUES if option not in reads]
    + [(["torsion", "--preset", preset, option, _PRESET_OPTION_VALUES[option]], option, preset)
       for preset, reads in _PRESET_READS.items()
       for option in _PRESET_OPTION_VALUES if option not in reads]
    + [(["torsion", "--input", "unread.json", option, value], option, "--input")
       for option, value in _PRESET_OPTION_VALUES.items()]
    + [(["torsion", "--input", "unread.json", "--preset", "circle"], "--preset", "--input")]
    + [(["gluing", "--geometry", "interval", "--L", "3"], "--L", "geometry interval"),
       (["gluing", "--L", "3"], "--L", "geometry interval")]
)


@pytest.mark.parametrize("argv, option, owner", _INAPPLICABLE,
                         ids=[" ".join(argv) for argv, _, _ in _INAPPLICABLE])
def test_inapplicable_option_rejected(capsys, argv, option, owner):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert option in err and owner in err


def test_option_values_cover_the_tables():
    # an option a new builder keyword adds must get a value above, or the
    # models and presets that do not read it go untested
    assert set(_MODEL_OPTION_VALUES) == set().union(*_MODEL_READS.values())
    assert set(_PRESET_OPTION_VALUES) == set().union(*_PRESET_READS.values())


def test_zeta_torus_value(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--model", "torus", "--n", "2",
                           "--L", "1", "--degree", "1", "--s", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-2.0, abs=1e-9)


def test_zeta_sphere_value(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--model", "sphere2",
                           "--degree", "0", "--s", "0", "--json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-2.0 / 3.0, abs=1e-9)


def test_zeta_sphere_negative_integers(capsys):
    # zeta(-n) = (-1)^n n! c_n times the degree multiplicity; the derivative
    # needs the same s = -n branch and must not fail either
    coeffs = dict(sphere2_power_coefficients())
    for n in (1, 2, 3, 4):
        exact = (-1) ** n * math.factorial(n) * coeffs[n]
        for degree, mult in enumerate((1, 2, 1)):
            for extra in ([], ["--derivative"]):
                code, out, _ = run_cli(capsys, "zeta", "--model", "sphere2", "--degree",
                                       str(degree), "--s", str(-n), *extra, "--json")
                assert code == 0
                payload = json.loads(out)
                assert payload["value"] == pytest.approx(float(mult * exact), rel=1e-15)
                assert ("derivative" in payload) == bool(extra)


def test_zeta_sphere_half_integers_below_zero(capsys):
    # 40-digit values of the binomial-Hurwitz series for the scalar zeta
    for s, value in (("-2.5", -0.0022440126778265867), ("-3.5", 0.00035591246773071301)):
        code, out, _ = run_cli(capsys, "zeta", "--model", "sphere2", "--degree", "1",
                               "--s", s, "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 2.0 * value) <= payload["abs_error_estimate"]


def test_gluing_reads_its_options(capsys):
    # the residue torsions are topological; R shows in which splits are valid
    code, _, err = run_cli(capsys, "gluing", "--split", "1.5", "--json")
    assert code == 2 and "split must cut the interior" in err
    for argv in (["--R", "2"], ["--geometry", "cylinder", "--R", "2", "--L", "1.3"]):
        code, out, _ = run_cli(capsys, "gluing", *argv, "--split", "1.5", "--json")
        assert code == 0 and json.loads(out)["ok"] is True


def test_zeta_pole_exit_4(capsys):
    code, _, err = run_cli(capsys, "zeta", "--model", "circle", "--s", "0.5")
    assert code == 4
    assert "pole" in err


# lengths (and an angle) whose eigenvalues floating point cannot hold, or
# whose series would not end (about 1.1 L modes or 14/L images at t = 1): a
# NumericalLimit naming the option given, exit 1, one error line and no
# traceback; an infinite length is outside its domain, a BadParameter, exit 2
_UNHOLDABLE = (
    (["zeta", "--model", "circle", "--L", "1e-300", "--s", "2"], "L", 1),  # (2 pi/L)^2 overflows
    (["zeta", "--model", "interval", "--R", "1e-170", "--s", "2"], "R", 1),
    (["zeta", "--model", "circle", "--L", "inf", "--s", "2"], "L", 2),
    (["zeta", "--model", "circle", "--L", "1e300", "--s", "2"], "L", 1),  # (2 pi/L)^2 underflows
    (["zeta", "--model", "torus", "--n", "4", "--L", "1e100", "--s", "3"], "L", 1),
    (["zeta", "--model", "torus", "--n", "60", "--L", "9e5", "--s", "3"], "L", 1),  # (L/sqrt(4 pi))^60 overflows
    (["gluing", "--R", "inf"], "R", 2),
    (["zeta", "--model", "circle", "--rank", "2", "--theta", "1e-200", "--s", "2"], "theta", 1),
    (["zeta", "--model", "circle", "--L", "1e150", "--s", "2"], "L", 1),
    (["zeta", "--model", "circle", "--L", "1e-100", "--s", "2"], "L", 1),
    (["zeta", "--model", "torus", "--n", "2", "--L", "1e150", "--s", "2"], "L", 1),
    (["zeta", "--model", "interval", "--R", "1e-100", "--s", "2"], "R", 1),
)


@pytest.mark.parametrize("argv, option, exit_code", _UNHOLDABLE,
                         ids=[" ".join(a) for a, _, _ in _UNHOLDABLE])
def test_unholdable_length_refused(capsys, argv, option, exit_code):
    code, out, err = run_cli(capsys, *argv)
    assert code == exit_code and out == ""
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


# a value outside its documented domain: exit 2, its one error line, no output
_MALFORMED = (
    (["torsion", "--preset", "point", "--rank", "0"], "rank must be positive, got 0"),
    (["zeta", "--model", "circle", "--rank", "0", "--s", "2"], "circle rank must be 1 or 2, got 0"),
    (["torsion", "--preset", "circle", "--theta", "nan"], "theta must lie in [0, 2*pi), got nan"),
    (["zeta", "--model", "circle", "--L", "-1", "--s", "2"], "L must be positive and finite, got -1.0"),
    (["zeta", "--model", "circle", "--s", "nan"], "s must be finite, got nan"),
    (["torsion", "--preset", "circle", "--beta", "0,nan"], "weight beta_1 must be finite, got nan"),
    (["model-torsion", "--model", "torus", "--beta", "lin:1e308,1e308"],
     "weight beta_1 must be finite, got inf"),
    (["zeta", "--model", "torus", "--n", "0", "--s", "2"], "torus dimension must be >= 1, got 0"),
    (["zeta", "--model", "interval", "--R", "0", "--s", "2"], "R must be positive and finite, got 0.0"),
    (["gluing", "--split", "1.5"], "split must cut the interior: need 0 < 1.5 < 1"),
    (["zeta", "--model", "circle", "--theta", "0.7", "--s", "2"],
     "a nontrivial circle character requires rank 2"),
    (["model-torsion", "--model", "circle", "--theta", "7"], "theta must lie in [0, 2*pi), got 7.0"),
    (["torsion", "--preset", "circle", "--beta", "lin:a,b"], "bad linear weight spec 'lin:a,b'"),
)


@pytest.mark.parametrize("argv, message", _MALFORMED, ids=[" ".join(a) for a, _ in _MALFORMED])
def test_malformed_option_value_exits_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_non_finite_boundary_refused(capsys, tmp_path):
    # a sum of coefficients that overflows, and a coefficient beyond the float
    # range: malformed input, exit 2 with one error line
    data = json.loads((Path(__file__).parent / "huge_coefficient.json").read_text())
    data["cells"][1]["boundary"] = [{"cell": 0, "coeff": 10 ** 400, "word": []}]
    beyond = tmp_path / "beyond.json"
    beyond.write_text(json.dumps(data))
    for path, message in ((Path(__file__).parent / "huge_coefficient.json",
                           "error: bd_1 has an entry that is not finite\n"),
                          (beyond, "error: degree 1 cell 0: the coefficient on target 0 "
                                   "does not fit a float\n")):
        code, out, err = run_cli(capsys, "torsion", "--input", str(path))
        assert (code, out, err) == (2, "", message)


# the exit status of each error class: these, and 1 for every other subclass
EXIT_CODES = {TorsionLabError: 1, NumericalLimit: 1,
              SchemaError: 2, BadParameter: 2, BadRepresentation: 2, UnsupportedPartition: 2,
              NotAcyclic: 3, PoleHit: 4}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, TorsionLabError)]


def test_exit_code_table_matches_cli_docstring():
    table = cli.__doc__.split("Exit codes")[1].split("Output into")[0]
    documented = {int(code): {name for group in re.findall(r"\((\w+(?:,\s+\w+)*)\)", text)
                              for name in re.split(r",\s+", group)}
                  for code, text in re.findall(r"^    ([0-4])  (.*?)(?=^    [0-4]  |\Z)",
                                               table, re.M | re.S)}
    expected: dict = {}
    for cls, code in EXIT_CODES.items():
        expected.setdefault(code, set()).add(cls.__name__)
    assert {code: names for code, names in documented.items() if names} == expected


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=[c.__name__ for c in ERROR_CLASSES])
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, cls):
    def fail(args):
        raise cls("what went wrong")

    monkeypatch.setattr(cli, "cmd_zeta", fail)
    code, out, err = run_cli(capsys, "zeta", "--model", "circle", "--s", "2")
    assert code == cls.exit_code == EXIT_CODES.get(cls, 1)
    assert (out, err) == ("", "error: what went wrong\n")


_REFUSALS = (
    # the trivial angles build; the Laplacian route refuses them
    (["torsion", "--preset", "torus2", "--alpha", "0", "--beta-angle", "0"], 3,
     "error: degree 0 has Betti number 2 (Betti numbers [2, 4, 2])\n"),
    (["torsion", "--preset", "circle", "--theta", "0"], 3,
     "error: degree 0 has Betti number 2 (Betti numbers [2, 2])\n"),
    # SpectralModel refuses a degree outside 0..dim, at both ends
    (["zeta", "--model", "sphere2", "--degree", "-1", "--s", "2"], 2,
     "error: degree must lie in 0..2\n"),
    (["zeta", "--model", "sphere2", "--degree", "3", "--s", "2"], 2,
     "error: degree must lie in 0..2\n"),
    # CellStructure refuses the exponent 2 (before, it was read as -1)
    (["torsion", "--input", "tests/bad_word_exponent.json"], 2,
     "error: degree 1 cell 0: word ((0, 2),) is not a tuple of (generator >= 0, "
     "exponent +-1) integer pairs\n"),
    (["torsion"], 2, "error: provide either --input or --preset\n"),
    # before, "rep must list exactly `generators` matrices"
    (["torsion", "--input", '{"dimension": 1, "rank": 1, "generators": -1, "rep": [], '
                            '"cells": []}'], 2,
     "error: generators must be non-negative, got -1\n"),
    # before, "cell dim -1 exceeds complex dimension 1"
    (["torsion", "--input", '{"dimension": 1, "rank": 1, "generators": 0, "rep": [], '
                            '"cells": [{"dim": -1, "boundary": []}]}'], 2,
     "error: cell dim -1 outside 0..1\n"),
)


@pytest.mark.parametrize("argv, code, message", _REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in _REFUSALS])
def test_refusals_exit_once(capsys, monkeypatch, argv, code, message):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert run_cli(capsys, *argv) == (code, "", message)


def test_singular_value_beyond_float_range_refused(capsys, recwarn):
    # bd_1 = 10^308 R(pi/2) - I: every entry finite, but sigma^2, an eigenvalue
    # of L_1, is not: malformed input, exit 2 with one error line, no warning
    path = Path(__file__).parent / "huge_singular_value.json"
    code, out, err = run_cli(capsys, "torsion", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: bd_1 has singular value 1e+308, whose square is not finite\n"
    # under a metric the weighted map itself overflows
    code, out, err = run_cli(capsys, "torsion", "--input", str(path), "--metric", "random:2")
    assert (code, out) == (2, "")
    assert err == "error: bd_1 weighted by the metric has an entry that is not finite\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's torsionlab."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_closed_pipe_exits_1_quietly():
    # writing into a pipe whose read end is closed: exit 1 and no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "torsionlab.cli", "zeta", "--model", "circle", "--s", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """One command as the torsionlab script runs it, in a fresh interpreter
    whose stdout and stderr are pipes, buffered: a write that run() failed
    to flush is lost."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "torsionlab.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=Path(__file__).resolve().parents[1],
                          timeout=120)


def test_piped_verify_json_is_one_whole_document():
    # the process ends without teardown, which flushes nothing: a lost buffer
    # would cut this output short
    proc = _fresh("verify", "--suite", "all", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("}\n")  # print's newline, the one write after the document
    payload = json.loads(proc.stdout)
    assert payload["n_failed"] == 0 and len(payload["cases"]) == payload["n_cases"]


# one command per exit status; 0 and 2 also from argparse (--help, a usage error)
_EXITS = (
    ["zeta", "--model", "circle", "--s", "2"],
    ["--help"],
    ["zeta", "--model", "circle", "--L", "1e-300", "--s", "2"],
    ["torsion", "--preset", "point", "--rank", "0"],
    ["zeta", "--model", "circle", "--s", "2", "--json", "--csv"],
    ["torsion", "--preset", "circle", "--theta", "0"],
    ["zeta", "--model", "circle", "--s", "0.5"],
)


@pytest.mark.parametrize("argv", _EXITS, ids=[" ".join(a) for a in _EXITS])
def test_process_ends_as_main_returns(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # one width for --help here and in the child
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    proc = _fresh(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def test_console_script_and_main_block_call_run():
    root = Path(__file__).resolve().parents[1]
    script = re.search(r'^torsionlab = "torsionlab\.cli:(\w+)"$',
                       (root / "pyproject.toml").read_text(), re.M)
    blocks = [node.body for node in ast.parse(inspect.getsource(cli)).body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert script.group(1) == "run"
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["run()"]]


def test_cli_loads_no_scipy():
    # a fresh interpreter, as this process may hold scipy for other reasons:
    # the import and a zeta evaluation load numpy only
    code = ("import sys; from torsionlab import cli; "
            "assert cli.main(['zeta', '--model', 'sphere2', '--s', '0.75', '--derivative']) == 0; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "nodes" in proc.stdout


def test_import_loads_no_dataclasses_or_fractions():
    # a fresh interpreter: generated dataclass methods (with dataclasses and
    # copy) and fractions (with decimal) cost every CLI process about 5 ms;
    # the exact Bernoulli tables import fractions on use
    for module in ("torsionlab", "torsionlab.cli"):
        code = (f"import sys, {module}; print(sorted(m for m in "
                "('dataclasses', 'fractions', 'decimal') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_zeta_boundary_model(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--model", "interval",
                           "--condition", "relative", "--R", "1.0",
                           "--degree", "0", "--s", "0", "--json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-0.5, abs=1e-12)


def test_model_torsion_sphere(capsys):
    code, out, _ = run_cli(capsys, "model-torsion", "--model", "sphere2",
                           "--beta", "1", "--kind", "residue", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["log_torsion_res"] == pytest.approx(2.0, abs=1e-9)


def test_rank_rejected_where_unsupported(capsys):
    # torus, sphere2 and cylinder read no rank; --rank 2 must not be ignored
    for model in (["torus", "--n", "2"], ["sphere2"], ["cylinder"]):
        for command in (["model-torsion", "--beta", "1"], ["zeta", "--s", "2"]):
            code, out, err = run_cli(capsys, command[0], "--model", *model, "--rank", "2",
                                     *command[1:], "--json")
            assert code == 2 and out == ""
            assert err == f"error: --rank does not apply to model {model[0]}\n"


def test_family_flags_are_the_option_tables():
    # every family flag comes from its table, and its help names the families reading it
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    for command, table, own in (
            ("torsion", PRESET_OPTIONS, {"input", "preset", "beta", "metric"}),
            ("zeta", MODEL_OPTIONS, {"model", "degree", "s", "derivative"}),
            ("model-torsion", MODEL_OPTIONS, {"model", "kind", "beta"}),
            ("gluing", GLUING_OPTIONS, {"geometry", "split", "outer", "tol"})):
        actions = {a.dest: a for a in subparsers[command]._actions}
        keywords = {dest for reads in table.values() for dest in reads}
        assert actions.keys() - {"help", "json", "csv"} - own == keywords, command
        for dest in keywords:
            readers = ", ".join(name for name, reads in table.items() if dest in reads)
            assert actions[dest].help == f"read by {readers}", (command, dest)
            assert actions[dest].default is None


def test_residue_quantities_print_no_negative_zero(capsys):
    for model in (["circle"], ["torus"], ["cylinder", "--condition", "mixed"]):
        code, out, _ = run_cli(capsys, "model-torsion", "--model", *model, "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(type(z) is float for z in payload["zeta0"]), payload["zeta0"]
        numbers = [x for value in payload.values() if isinstance(value, list) for x in value]
        numbers += [x for x in payload.values() if isinstance(x, float)]
        assert not [x for x in numbers if x == 0.0 and math.copysign(1.0, x) < 0.0], payload


def test_model_torsion_boundary(capsys):
    code, out, _ = run_cli(capsys, "model-torsion", "--model", "interval",
                           "--condition", "absolute", "--beta", "k", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["log_torsion_res"] == pytest.approx(0.5, abs=1e-9)
    assert payload["flags"]["weighted_closed_form"] == pytest.approx(0.5)
    code, out, err = run_cli(capsys, "model-torsion", "--model", "interval",
                             "--kind", "analytic")
    assert code == 2 and out == ""
    assert "residue only" in err


def test_gluing_command(capsys):
    code, out, _ = run_cli(capsys, "gluing", "--geometry", "interval",
                           "--outer", "absolute", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["lhs"] == pytest.approx(0.5)


def test_verify_command_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "boundary")
    assert code == 0
    assert "cases passed" in out


def test_tol_and_seed_only_where_read():
    for argv in (["torsion", "--preset", "circle", "--tol", "1"],
                 ["gluing", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--json", "--csv"], ["--csv", "--json"]])
def test_json_and_csv_exclude_each_other(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--model", "circle", "--s", "2", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flags[1]}: not allowed with argument {flags[0]}" in err


@pytest.mark.parametrize("argv", [["verify", "--seed", "-1"], ["verify", "--tol", "inf"],
                                  ["gluing", "--tol", "nan"]])
def test_negative_seed_and_unusable_tolerance_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_missing_input_file_is_named(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "torsion", "--input", missing)
    assert code == 2 and out == ""
    assert err == f"error: '{missing}' is neither an existing file nor JSON text " \
                  "(Expecting value: line 1 column 1 (char 0))\n"


def test_verify_loose_tolerance_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-spectral",
                           "--tol", "1e-6", "--json")
    assert code == 0
    assert json.loads(out)["n_failed"] == 0


def test_command_determinism(capsys):
    args = ("model-torsion", "--model", "sphere2", "--beta", "k",
            "--kind", "both", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--model", "torus", "--n", "2",
                           "--L", "1", "--degree", "1", "--s", "0", "--csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines())
    assert float(rows["value"]) == pytest.approx(-2.0)


def test_csv_rows_are_the_flattened_json(capsys):
    # a payload with lists (beta, dims, spectra, tr_log): each entry is a row keyed
    # by its path, list indices included, and a float is printed to 15 digits
    _, out, _ = run_cli(capsys, "torsion", "--preset", "circle", "--json")
    expected = {}

    def walk(value, key):
        if isinstance(value, dict):
            for name, item in value.items():
                walk(item, f"{key}{name}.")
        elif isinstance(value, list):
            for idx, item in enumerate(value):
                walk(item, f"{key}{idx}.")
        else:
            expected[key[:-1]] = f"{value:.15g}" if isinstance(value, float) else str(value)

    walk(json.loads(out), "")
    code, out, _ = run_cli(capsys, "torsion", "--preset", "circle", "--csv")
    rows = dict(line.split(",", 1) for line in out.splitlines())
    assert code == 0 and len(rows) == len(out.splitlines())
    assert rows == expected and list(rows) == sorted(rows)
    assert "spectra.1.0" in rows


def test_tol_override_spares_pass_fail_cases():
    verdicts = {"combinatorial/telescoping-symbolic",
                "combinatorial/guards-and-negative-control",
                "closed-spectral/mellin-pole-consistency",
                "boundary/gluing-degenerate-rejected",
                "variation/gamma-metric-dependence",
                "variation/kinked-path-rejected"}
    results = run_suites("all", tol=2.0)
    assert {r.case_id for r in results if r.tolerance == 0.5} == verdicts
    assert all(r.tolerance == 2.0 for r in results if r.case_id not in verdicts)
