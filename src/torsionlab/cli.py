"""Command-line interface.

Subcommands:
    torsion        log torsion of a twisted complex (preset or JSON input)
    zeta           one spectral zeta evaluation on a model geometry
    model-torsion  residue/analytic torsion of a closed or boundary model
    verify         run the verification suites
    gluing         evaluate the torsion gluing identity on a split geometry

Exit codes, each an error class's exit_code (errors states them once):
    0  success
    1  failed verification, a value inside its domain that the numerics
       cannot hold (NumericalLimit), or any other error (TorsionLabError)
    2  malformed input: a value outside its documented domain, or an option
       the chosen model, preset or geometry does not read (SchemaError,
       BadParameter, BadRepresentation, UnsupportedPartition); argparse's
       usage errors exit 2 too
    3  acyclicity violation, including one the minor oracle cannot certify
       (NotAcyclic)
    4  zeta pole hit (PoleHit)
Output into a closed pipe exits 1 with nothing on stderr.
All floating output uses 15 significant digits; --json output round-trips
bit-exactly through json.loads.

A CLI process (the torsionlab script, python -m torsionlab.cli) ends in
run(): it flushes stdout and stderr, then ends without interpreter
teardown, the finalizing of numpy and of every module the library loaded.
So atexit handlers registered by other code, a coverage hook in a
child process for one, do not run.  main(argv) returns the exit code to
in-process callers and ends nothing.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import NoReturn

import numpy as np

from . import boundary as bnd
from . import models as mdl
from .complexes import PRESETS, build_preset, complex_from_json
from .errors import SchemaError, ShapeMismatch, TorsionLabError
from .hodge import ChainMetric, factorize
from .torsion import determinant_oracle
from .verify import DEFAULT_SEED, SUITES, run_suites
from .weights import _weights, classify_beta, generalized_log_torsion

# Each model, preset and gluing geometry states its options once, as its
# builder's keywords and their defaults.  They default to None on the
# command line, so one given where it is not read is rejected.
SPECTRAL_MODELS = {**mdl.MODELS, "interval": bnd.build_interval, "cylinder": bnd.build_cylinder}


def _options(builder) -> dict:
    return {p.name: p.default for p in inspect.signature(builder).parameters.values()}


MODEL_OPTIONS = {name: _options(builder) for name, builder in SPECTRAL_MODELS.items()}
PRESET_OPTIONS = {name: {"beta_angle" if k == "beta" else k: v for k, v in _options(f).items()}
                  for name, f in PRESETS.items()}
GLUING_OPTIONS = {geometry: {k: bnd.gluing_check.__kwdefaults__[k] for k in keys}
                  for geometry, keys in (("interval", ("R",)), ("cylinder", ("R", "L")))}


def fmt(x: float) -> str:
    return f"{x:.15g}"


def parse_beta(spec: str, length: int) -> tuple[float, ...]:
    """Weight grammar: '1' | 'k' | 'lin:lam,mu' | explicit comma list."""
    spec = spec.strip()
    if spec == "1":
        return (1.0,) * length
    if spec == "k":
        return tuple(float(k) for k in range(length))
    if spec.startswith("lin:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise SchemaError(f"expected lin:lam,mu, got {spec!r}")
        try:
            lam, mu = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise SchemaError(f"bad linear weight spec {spec!r}") from exc
        beta = tuple(lam + mu * k for k in range(length))
    else:
        try:
            beta = tuple(float(x) for x in spec.split(","))
        except ValueError as exc:
            raise SchemaError(f"bad weight list {spec!r}") from exc
    try:
        return _weights(beta, length)
    except ShapeMismatch:
        raise SchemaError(f"weight list has length {len(beta)}, need {length}") from None


def _emit(args, payload: dict, pretty_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif getattr(args, "csv", False):
        for key, value in sorted(_flatten(payload).items()):
            print(f"{key},{value}")
    else:
        for line in pretty_lines:
            print(line)


def _flatten(obj, prefix: str = "") -> dict:
    out: dict = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(_flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for idx, value in enumerate(obj):
            out.update(_flatten(value, f"{prefix}{idx}."))
    else:
        value = fmt(obj) if isinstance(obj, float) else obj
        out[prefix[:-1]] = value
    return out


# --- torsion ------------------------------------------------------------------


def _read_options(args, table: dict, name: str | None, owner: str) -> dict:
    """The options table[name] reads, given or defaulted; SchemaError names any
    other option of the table that was given (name None reads none)."""
    reads = table.get(name, {})
    for dest in sorted({d for opts in table.values() for d in opts} - reads.keys()):
        if getattr(args, dest) is not None:
            raise SchemaError(f"--{dest.replace('_', '-')} does not apply to {owner}")
    return {dest: default if getattr(args, dest) is None else getattr(args, dest)
            for dest, default in reads.items()}


def _build_input_complex(args):
    if args.input is not None:
        if args.preset is not None:
            raise SchemaError("provide either --input or --preset, not both")
        _read_options(args, PRESET_OPTIONS, None, "--input")
        return complex_from_json(args.input), f"json:{args.input}"
    if args.preset is None:
        raise SchemaError("provide either --input or --preset")
    params = _read_options(args, PRESET_OPTIONS, args.preset, f"preset {args.preset}")
    if "beta_angle" in params:
        params["beta"] = params.pop("beta_angle")
    return build_preset(args.preset, **params), f"preset:{args.preset}"


def cmd_torsion(args) -> int:
    cplx, source = _build_input_complex(args)
    kind, _, seed = args.metric.partition(":")
    if kind == "random" and seed.isdecimal():
        metric = ChainMetric.random_spd(cplx, np.random.default_rng(int(seed)))
    elif args.metric == "identity":
        metric = None
    else:
        raise SchemaError(f"metric spec must be identity or random:SEED with SEED a "
                          f"nonnegative integer, got {args.metric!r}")
    n = cplx.dimension
    beta = parse_beta(args.beta, n + 1)
    classification = classify_beta(beta)
    if not classification.satisfies_recurrence:
        print("warning: beta not in span{1,k}; the value is metric dependent",
              file=sys.stderr)
    fac = factorize(cplx, metric)
    tr_logs = fac.tr_logs
    log_t = generalized_log_torsion(tr_logs, beta)
    payload = {
        "source": source,
        "rank": cplx.rank,
        "dims": list(cplx.dims),
        "beta": list(beta),
        "beta_in_invariant_span": classification.satisfies_recurrence,
        "tr_log": list(tr_logs),
        "spectra": [lam.tolist() for lam in fac.spectra],
        "log_torsion": log_t,
    }
    if args.metric == "identity":
        payload["log_torsion_minor_oracle"] = determinant_oracle(cplx)
    lines = [f"source          {source}",
             f"beta            {', '.join(fmt(b) for b in beta)}"]
    lines += [f"tr log L_{k}      {fmt(t)}" for k, t in enumerate(tr_logs)]
    lines.append(f"log torsion     {fmt(log_t)}")
    if "log_torsion_minor_oracle" in payload:
        lines.append(f"minor oracle    {fmt(payload['log_torsion_minor_oracle'])}")
    _emit(args, payload, lines)
    return 0


# --- zeta ---------------------------------------------------------------------


def _build_spectral_model(args):
    params = _read_options(args, MODEL_OPTIONS, args.model, f"model {args.model}")
    return SPECTRAL_MODELS[args.model](**params)


def cmd_zeta(args) -> int:
    model = _build_spectral_model(args)
    ev = model.zeta(args.degree, args.s, derivative=args.derivative)
    payload = {
        "model": model.name,
        "degree": args.degree,
        "s": args.s,
        "value": ev.value,
        "abs_error_estimate": ev.abs_error_estimate,
        "kernel_dim": ev.kernel_dim,
        "nodes": ev.nodes,
    }
    lines = [f"model           {model.name}",
             f"zeta_{args.degree}({fmt(args.s)})    {fmt(ev.value)}",
             f"error estimate  {fmt(ev.abs_error_estimate)}",
             f"kernel dim      {ev.kernel_dim}",
             f"nodes           {ev.nodes}"]
    if args.derivative:
        payload["derivative"] = ev.derivative
        lines.insert(2, f"d/ds            {fmt(ev.derivative)}")
    _emit(args, payload, lines)
    return 0


# --- model torsion --------------------------------------------------------------


def cmd_model_torsion(args) -> int:
    model = _build_spectral_model(args)
    if model.condition is not None and args.kind != "residue":
        raise SchemaError("boundary models support --kind residue only")
    beta = parse_beta(args.beta, model.dim + 1)
    if args.kind == "analytic":
        report = mdl.analytic_torsion(model, beta)
    else:
        report = mdl.residue_torsion(model, beta)
    if args.kind == "both":
        ana = mdl.analytic_torsion(model, beta)
        report = report._replace(log_torsion_zeta=ana.log_torsion_zeta,
                                 zeta_prime0=ana.zeta_prime0,
                                 abs_error_estimate=ana.abs_error_estimate)
    payload = report.as_dict()
    lines = [f"model           {report.model}",
             f"beta            {', '.join(fmt(b) for b in report.beta)}",
             f"betti           {list(report.betti)}",
             "zeta(0)         " + ", ".join(fmt(z) for z in report.zeta0),
             "res(log L)      " + ", ".join(fmt(r) for r in report.residue_traces)]
    if report.log_torsion_res is not None:
        lines.append(f"log T (residue) {fmt(report.log_torsion_res)}")
    if report.log_torsion_zeta is not None:
        lines.append(f"log T (zeta)    {fmt(report.log_torsion_zeta)}")
    _emit(args, payload, lines)
    return 0


# --- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = run_suites(args.suite, tol=args.tol, seed=args.seed)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "cases": [r.as_dict() for r in results],
        "n_cases": len(results),
        "n_failed": sum(not r.passed for r in results),
    }
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.case_id:55s} measured {r.measured:.3e} "
                     f"tol {r.tolerance:.1e}  [{r.provenance}]")
    lines.append(f"{payload['n_cases'] - payload['n_failed']}/"
                 f"{payload['n_cases']} cases passed")
    _emit(args, payload, lines)
    return 1 if payload["n_failed"] else 0


# --- gluing ---------------------------------------------------------------------


def cmd_gluing(args) -> int:
    params = _read_options(args, GLUING_OPTIONS, args.geometry, f"geometry {args.geometry}")
    report = bnd.gluing_check(args.geometry, **params, split=args.split,
                              outer=args.outer, tol=args.tol)
    payload = report.as_dict()
    lines = [f"geometry        {report.geometry} (outer {report.outer_condition}, "
             f"split at {fmt(report.split)})",
             f"lhs             {fmt(report.lhs)}",
             f"piece 1         {fmt(report.piece1)}",
             f"piece 2         {fmt(report.piece2)}",
             f"interface T     {fmt(report.interface_torsion)}",
             f"chi(Y)/2        {fmt(report.half_chi_interface)}",
             f"rhs             {fmt(report.rhs)}",
             f"discrepancy     {fmt(report.discrepancy)}",
             f"ok              {report.ok}"]
    _emit(args, payload, lines)
    return 0 if report.ok else 1


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Torsion invariants of twisted complexes and model spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    output = common.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="machine-readable output")
    output.add_argument("--csv", action="store_true", help="flat key,value output")

    p = sub.add_parser("torsion", parents=[common],
                       help="log torsion of a twisted chain complex")
    p.add_argument("--input", help="path to a complex JSON file")
    p.add_argument("--preset", choices=tuple(PRESET_OPTIONS))
    _add_options(p, PRESET_OPTIONS)
    p.add_argument("--beta", default="k", help="weights: 1 | k | lin:l,m | list")
    p.add_argument("--metric", default="identity", help="identity | random:SEED")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("zeta", parents=[common],
                       help="evaluate a model spectral zeta function")
    p.add_argument("--model", required=True,
                   choices=tuple(MODEL_OPTIONS))
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--derivative", action="store_true")
    _add_options(p, MODEL_OPTIONS)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("model-torsion", parents=[common],
                       help="residue/analytic torsion of a model geometry")
    p.add_argument("--model", required=True,
                   choices=tuple(MODEL_OPTIONS))
    p.add_argument("--kind", choices=("residue", "analytic", "both"),
                   default="residue")
    p.add_argument("--beta", default="k", help="weights: 1 | k | lin:l,m | list")
    _add_options(p, MODEL_OPTIONS)
    p.set_defaults(func=cmd_model_torsion)

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification suites")
    p.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    p.add_argument("--tol", type=float, default=None,
                   help="override verification tolerances")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized cases")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gluing", parents=[common],
                       help="check the torsion gluing identity")
    p.add_argument("--geometry", choices=tuple(GLUING_OPTIONS), default="interval")
    _add_options(p, GLUING_OPTIONS)
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--outer", choices=("relative", "absolute"), default="absolute")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="tolerance on the gluing discrepancy")
    p.set_defaults(func=cmd_gluing)

    return parser


def _add_options(p: argparse.ArgumentParser, table: dict) -> None:
    """--option for each option of the table, typed by its first default; its
    help names the families that read it."""
    readers: dict = {}
    for name, options in table.items():
        for dest, default in options.items():
            readers.setdefault(dest, (default, []))[1].append(name)
    for dest, (default, names) in readers.items():
        p.add_argument(f"--{dest.replace('_', '-')}", type=type(default),
                       choices=bnd.CONDITIONS if dest == "condition" else None,
                       help=f"read by {', '.join(names)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at exit
        # cannot fail again (the Python signal docs' advice for SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except TorsionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> NoReturn:
    """The process entry: main() on sys.argv, its output flushed, then
    os._exit with its code, skipping interpreter teardown.  argparse's exit
    (2 for a usage error, 0 for --help) ends the same way; any other
    exception escaping main keeps its traceback and the normal exit, and so
    does a flush error other than a closed pipe."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's, whose code is an int
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 1  # the reader closed the pipe: nothing is printed about it
    os._exit(code)


if __name__ == "__main__":
    run()
