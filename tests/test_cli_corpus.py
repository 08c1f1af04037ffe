"""Replay tests/cli_corpus.json through cli.main, in process.

Each entry is an argv (every one ends in --json) with its exit code, its
first stderr line and its stdout as JSON.  Exit codes and stderr lines must
match exactly; floats agree to 1e-12 relative, or to 1e-14 absolute for
rounding residuals such as the verify cases' deviations, whose last bits
vary from host to host.

The entries come from the CLI's option tables: every subcommand with every
model, preset or gluing geometry at its defaults, then with each option of
its table set once (exit 2 where the family does not read it), plus one
entry per documented failure.  A change that moves an output on purpose
regenerates the file.  Regeneration writes back the committed entry wherever
the fresh one replays as it, so the diff shows only the outputs that moved
beyond the replay tolerance:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest

from torsionlab.cli import GLUING_OPTIONS, MODEL_OPTIONS, PRESET_OPTIONS, main
from torsionlab.verify import SUITES

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "cli_corpus.json"

# a value for every option, different from its default
SETTINGS = {"L": "3", "theta": "0.7", "rank": "2", "n": "3", "R": "1.5",
            "condition": "absolute", "alpha": "2", "beta_angle": "0.5"}


def _each_option_once(table: dict, head) -> list[list[str]]:
    every = sorted({dest for reads in table.values() for dest in reads})
    return [argv for name in sorted(table)
            for argv in [head(name)] + [head(name) + [f"--{dest.replace('_', '-')}",
                                                      SETTINGS[dest]] for dest in every]]


def argvs() -> list[list[str]]:
    out = _each_option_once(PRESET_OPTIONS, lambda p: ["torsion", "--preset", p])
    out += _each_option_once(MODEL_OPTIONS, lambda m: ["zeta", "--model", m, "--s", "0.75",
                                                       "--derivative"])
    out += _each_option_once(MODEL_OPTIONS, lambda m: ["model-torsion", "--model", m])
    out += _each_option_once(GLUING_OPTIONS, lambda g: ["gluing", "--geometry", g])
    out += [["zeta", "--model", m, "--degree", "1", "--s", s, "--derivative"]
            for m in sorted(MODEL_OPTIONS) for s in ("0", "-1.5")]
    out += [["model-torsion", "--model", m, "--kind", "both"] for m in ("sphere2", "torus")]
    out += [["model-torsion", "--model", m, "--kind", "analytic"]
            for m in ("circle", "sphere2", "torus")]
    out += [["verify", "--suite", suite] for suite in SUITES]
    return [argv + ["--json"] for argv in out + [
        ["torsion", "--preset", "circle", "--theta", "0"],                   # exit 3
        ["torsion", "--input", "tests/two_vertex_circle.json"],             # exit 3, oracle
        ["torsion", "--input", "tests/two_vertex_circle.json", "--theta", "1"],
        ["torsion", "--preset", "torus2", "--beta", "1,2,4"],               # a warning
        ["torsion", "--preset", "torus2", "--metric", "random:7", "--beta", "1"],
        ["zeta", "--model", "circle", "--theta", "0.7", "--rank", "2", "--s", "0.75"],
        ["model-torsion", "--model", "circle", "--theta", "0.7", "--rank", "2",
         "--kind", "both"],
        ["model-torsion", "--model", "interval", "--kind", "analytic"],      # exit 2
        ["zeta", "--model", "circle", "--s", "0.5"],                         # exit 4
        ["zeta", "--model", "sphere2", "--s", "-11"],                        # exit 1
        ["gluing", "--split", "1.5"],                                        # exit 2
        ["torsion", "--preset", "circle", "--metric", "random:abc"],         # exit 2
        ["torsion", "--preset", "circle", "--metric", "random:-1"],          # exit 2
    ]]


def record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code,
            "stderr": (err.getvalue().splitlines() or [""])[0],
            "stdout": json.loads(out.getvalue()) if out.getvalue() else None}


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _replays(got: dict, entry: dict) -> bool:
    return ((got["exit"], got["stderr"]) == (entry["exit"], entry["stderr"])
            and _same(got["stdout"], entry["stdout"]))


ENTRIES = json.loads(CORPUS.read_text()) if CORPUS.exists() else []


def test_corpus_lists_every_generated_argv():
    assert [entry["argv"] for entry in ENTRIES] == argvs()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_replay(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = record(entry["argv"])
    assert _replays(got, entry), got


if __name__ == "__main__":
    os.chdir(ROOT)
    committed = {tuple(entry["argv"]): entry for entry in ENTRIES}
    entries = []
    for argv in argvs():
        got, old = record(argv), committed.get(tuple(argv))
        entries.append(old if old is not None and _replays(got, old) else got)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
