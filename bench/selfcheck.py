"""Fast self-check of the benchmark: every workload once at its smallest sizes.

From the root of a checkout:

    python3 bench/selfcheck.py

For every workload and both --trace values it runs `run.py --smoke` and
checks that the run exits 0, that every job passed and every exact-answer
check ran, and that the metrics are exactly the end_to_end (trace 0) or
per_layer (trace 1) names of BENCHMARK.json with their units.  On the
traced run, the per-layer metrics that layers.json lists under `nonzero`
for the workload must be positive.  Last, run.py must refuse, with a
nonzero exit and no result, to run in a directory that holds only
BENCHMARK.json and the benchmark's files.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 300


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT, check=False)


def check_workload(spec: dict, layers: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: jobs failed: {report['failures']}")
    if report["checks_run"] != report["checks_due"] or not report["checks_due"]:
        fail(f"{label}: {report['checks_run']} of {report['checks_due']} checks ran")
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail(f"{label}: missing {missing}, unexpected {extra}, wrong units {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            fail(f"{label}: {name} = {m['value']!r}")
    if trace == 0:
        zero = sorted(n for n, m in result["metrics"].items() if m["value"] <= 0)
        if zero:
            fail(f"{label}: end-to-end metrics not positive: {zero}")
    else:
        listed = layers["workloads"][workload]
        for name in list(listed["layers"]) + listed["nonzero"]:
            if name not in wanted:
                fail(f"{label}: layers.json names {name}, which BENCHMARK.json lacks")
        zero = sorted(n for n in listed["nonzero"] if result["metrics"][n]["value"] <= 0)
        if zero:
            fail(f"{label}: layers that work here read 0: {zero}")
    print(f"ok   {label}: {result['attempted']} jobs, {report['checks_run']} checks")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "laplacian-route", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py did not refuse a directory without torsionlab sources")
    print("ok   refuses a directory without torsionlab sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(layers["workloads"]):
        fail("BENCHMARK.json and layers.json list different workloads")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, layers, workload, trace)
    check_refuses_without_sources()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
