"""Run one torsionlab benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload laplacian-route --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's `src/`.  One process runs the
workload's fixed job list pass after pass, one job at a time (a closed
loop with one client); the number of passes is `--seconds` over the
workload's typical pass time (workloads.PASS_SECONDS), so that a run takes
about `--seconds` seconds and the same run length always makes the same
number of passes.  Every job output is checked against an
exact answer computed outside the library.

Times are reported at a reference host speed (see HostClock): each wall
time is rescaled by a fixed calibration kernel timed just before and just
after it, because the shared host drifts between speed levels up to 1.7x
apart for seconds to minutes at a time.  The report line keeps the wall
times unscaled.

With `--trace 0` the last line of standard output is one JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they
are the per-layer metrics, taken from a second, traced half of the run
(see tracer.py).  The line before it is a JSON report with the versions,
pass and sample counts, failures and known defects.  `--smoke` runs every
workload once at its smallest sizes; selfcheck.py uses it.

The exit code is 0 when a result was printed, 2 when the checkout holds no
torsionlab sources.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("laplacian-route", "oracle-route", "spectral-sweep", "cli-cold")

BLAS_THREADS = "1"  # one closed-loop client; numpy's BLAS pool would only add noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TAIL_BEYOND = 10     # job_tail_s has at least this many samples above it
DIGITS_FLOOR = 1e-16
CHILD_TIMEOUT = 150.0

# Host-speed calibration (see HostClock and KERNELS).
STARTUP_REF_S = 0.25       # start-up kernel: a fresh interpreter importing STARTUP_MODULES
SMALL_KERNEL_STEPS = 8000
ELIMINATION_KERNEL_N = 512      # as wide as oracle-route's largest matrices
ELIMINATION_KERNEL_STEPS = 3
ELIMINATION_KERNEL_RANK_N = 128
STARTUP_MODULES = ("json, decimal, email.mime.text, http.client, xml.dom.minidom, asyncio, "
                   "sqlite3, csv, argparse, unittest, logging.handlers, tarfile, zipfile, ctypes")
CALIBRATE_EVERY = 0.5      # seconds of jobs between in-process kernel samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at the smallest sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        print(f"error: no torsionlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # fresh interpreters reuse compiled bytecode, as a user's would
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import workloads  # imports torsionlab, so only once the environment is set

    specs = workloads.inputs(args.workload, args.seed, args.smoke)
    report, metrics, tally = (traced_run if args.trace else timed_run)(args, specs)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0 and tally.checks_run == tally.checks_due,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


# --- set-up -----------------------------------------------------------------------


def setup_probe(args) -> int:
    """Import torsionlab and build the workload's inputs; print the seconds taken."""
    t0 = time.perf_counter()
    import workloads
    workloads.inputs(args.workload, args.seed, args.smoke)
    print(repr(time.perf_counter() - t0))
    return 0


def _python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT, check=False)


def measure_setup(args, repeats: int) -> tuple[list[float], list[float]]:
    """Set-up seconds in fresh interpreters, (wall, at reference speed).

    The first, unmeasured run fills .pyc caches; each measured run is
    rescaled by start-up kernels timed just before and just after it.
    """
    argv = [str(Path(__file__)), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])

    def probe() -> float:
        proc = _python(*argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    probe()
    clock = HostClock(*KERNELS["cli-cold"])
    before = clock.sample()
    wall, marks = [], []
    for _ in range(repeats):
        wall.append(probe())
        after = clock.sample()
        marks.append((before, after))
        before = after
    return wall, [clock.scale(w, *m) for w, m in zip(wall, marks)]


def import_times(repeats: int) -> dict[str, float]:
    """Cumulative import seconds of torsionlab, numpy and scipy from -X importtime."""
    runs = []
    for i in range(repeats + 1):
        proc = _python("-X", "importtime", "-c", "import torsionlab")
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        cumulative: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            try:
                cumulative[name.strip()] = int(cum) * 1e-6
            except ValueError:
                continue  # the header line
        if i:
            runs.append({pkg: max((v for n, v in cumulative.items()
                                   if n == pkg or n.startswith(pkg + ".")), default=0.0)
                         for pkg in ("torsionlab", "numpy", "scipy")})
    return {f"import.{pkg}_s": statistics.median(r[pkg] for r in runs)
            for pkg in ("torsionlab", "numpy", "scipy")}


# --- jobs and passes --------------------------------------------------------------


class Tally:
    """Attempts, failures and accuracy over every job run."""

    def __init__(self):
        self.attempted = self.failed = self.checks_run = self.checks_due = 0
        self.digits, self.digits_job = math.inf, None
        self.failures: list[str] = []

    def judge(self, job, out, error) -> None:
        self.attempted += 1
        self.checks_due += len(job.checks)
        problems = [error] if error else []
        for check in job.checks:
            if out is None or out.get(check.key) is None:
                problems.append(f"{check.key}: missing")
                continue
            self.checks_run += 1
            ok, digits = evaluate(check, out[check.key])
            if not ok:
                problems.append(f"{check.key}: got {out[check.key]!r}, "
                                f"expected {check.exact!r} within {check.tol:g}")
            elif digits is not None and digits < self.digits:
                self.digits, self.digits_job = digits, f"{job.name}/{check.key}"
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.name}: {'; '.join(problems)}")


def evaluate(check, value) -> tuple[bool, float | None]:
    """(passed, accuracy digits for closed forms) of one output."""
    if check.kind == "equal":
        return (tuple(value) if isinstance(value, list) else value) == check.exact, None
    try:
        err = abs(value - check.exact) if check.kind == "closed" else abs(value)
    except TypeError:
        return False, None
    if check.kind == "identity":
        return err <= check.tol, None
    scale = max(1.0, abs(check.exact))
    digits = -math.log10(max(err, DIGITS_FLOOR) / scale)
    return err <= check.tol * scale, digits


def run_job(job, tally, tracer=None, job_id=None) -> float:
    if tracer is not None:
        tracer.begin_job(job_id)
    t0 = time.perf_counter()
    try:
        out, error = job.run(), None
    except Exception as exc:  # a job that raises is counted as failed, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    tally.judge(job, out, error)
    return latency


@dataclass
class Pass:
    """One pass over a workload's job list."""

    wall: list[float]                # wall seconds of each job
    marks: list[tuple[int, int]]     # the clock samples taken just before and after each
    first_span: int = 0              # the pass's spans are tracer.spans[first_span:end_span]
    end_span: int = 0
    scaled: list[float] = field(default_factory=list)  # wall at the reference host speed

    def rescale(self, clock: "HostClock") -> None:
        self.scaled = [clock.scale(w, *m) for w, m in zip(self.wall, self.marks)]

    @property
    def seconds(self) -> float:
        """Pass time at the reference host speed: the sum of its job times."""
        return math.fsum(self.scaled)


def pass_count(workload, seconds: float) -> int:
    """Passes in a run of `seconds`: fixed by the run length alone (1 when smoke testing)."""
    return max(1, round(seconds / workload.pass_seconds))


def run_passes(workload, tally, count, clock, tracer=None, after_pass=None):
    """`count` passes over the workload's job list."""
    passes = []
    for _ in range(count):
        lo = len(tracer.spans) if tracer else 0
        before = clock.sample()
        wall, marks = [], []
        for i, job in enumerate(workload.jobs):
            wall.append(run_job(job, tally, tracer, (len(passes), i)))
            after = clock.sample()
            marks.append((before, after))
            before = after
        passes.append(Pass(wall, marks, lo, len(tracer.spans) if tracer else 0))
        if after_pass is not None:
            after_pass()
    for p in passes:
        p.rescale(clock)
    return passes


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI command in a fresh interpreter."""
    proc = _python("-m", "torsionlab.cli", *argv)
    return proc.returncode, proc.stdout


def run_probes(workload) -> list[dict]:
    """Known-defect jobs, run once and untimed; their outcome is reported, not counted."""
    found = []
    for job in workload.probes:
        tally = Tally()
        run_job(job, tally)
        found.append({"job": job.name, "fails": bool(tally.failed),
                      "detail": tally.failures[0] if tally.failures else "passes"})
    return found


class HostClock:
    """Rescales wall seconds to a reference host speed.

    The shared host this benchmark was written on drifts between speed
    levels up to 1.7x apart for seconds to minutes at a time, more than any
    count of passes averages away.  A calibration kernel that uses neither
    torsionlab nor anything a change to it could touch is timed between
    jobs; a job's wall seconds are multiplied by reference / (the `average`
    of the kernel samples from `window` before the job to `window` after it).
    Changes to the program pass through unscaled; changes of host speed
    cancel.
    """

    def __init__(self, kernel, reference: float, every: float, window: int, average):
        self.kernel, self.reference, self.every = kernel, reference, every
        self.window, self.average = window, average
        self.samples: list[float] = []
        self._taken_at = -math.inf

    def sample(self) -> int:
        """Index of the latest kernel sample, timed afresh once `every` seconds have passed."""
        if time.perf_counter() - self._taken_at >= self.every:
            self.samples.append(self.kernel())
            self._taken_at = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, seconds: float, before: int, after: int) -> float:
        """Wall seconds of a job between samples `before` and `after`, at reference speed."""
        window = self.samples[max(0, before - self.window + 1):after + self.window]
        return seconds * self.reference / self.average(window)

    def summary(self) -> dict[str, float]:
        ordered = sorted(self.samples)
        return {"samples": len(ordered), "min_s": ordered[0],
                "median_s": statistics.median(ordered), "max_s": ordered[-1]}


# Each kernel does the kind of work its workload's jobs do, so that a slow
# spell of the host slows both alike, and runs long enough (tens of
# milliseconds) to average the host's sub-second slow spells as a job does; a
# few-millisecond kernel lands on one or the other and jumps 2x.  A kernel of
# another kind tracks a workload poorly: the small kernel left oracle-route's
# spread as it was.


def small_kernel_seconds() -> float:
    """Seconds of small numpy column operations and integer arithmetic, like a Jacobi sweep."""
    import numpy as np
    grid = np.zeros((16, 16))
    t0 = time.perf_counter()
    total = 0
    for i in range(SMALL_KERNEL_STEPS):
        column = grid[:, 3].copy()
        grid[:, 4] = 0.5 * column - 0.1 * column
        total += i * i
    return time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def _elimination_matrix():
    import numpy as np
    n = ELIMINATION_KERNEL_N
    return np.random.default_rng(0).standard_normal((n, n)) + n * np.eye(n)


def elimination_kernel_seconds() -> float:
    """Seconds of a rank by SVD and the first steps of full-pivot elimination on fixed dense matrices.

    The same operations as a minor-oracle job: an SVD, then per step a
    gathered submatrix, its largest entry and a gathered rank-one update.
    """
    import numpy as np
    t0 = time.perf_counter()
    a = _elimination_matrix().copy()
    np.linalg.matrix_rank(a[:ELIMINATION_KERNEL_RANK_N, :ELIMINATION_KERNEL_RANK_N])
    rows, cols = list(range(ELIMINATION_KERNEL_N)), list(range(ELIMINATION_KERNEL_N))
    for _ in range(ELIMINATION_KERNEL_STEPS):
        sub = np.abs(a[np.ix_(rows, cols)])
        i, j = divmod(int(np.argmax(sub)), sub.shape[1])
        pivot_row, pivot_col = rows.pop(i), cols.pop(j)
        r, c = np.array(rows), np.array(cols)
        a[np.ix_(r, c)] -= np.outer(a[r, pivot_col] / a[pivot_row, pivot_col], a[pivot_row, c])
    return time.perf_counter() - t0


def startup_kernel_seconds() -> float:
    """Wall seconds of a fresh, isolated interpreter importing a fixed set of stdlib modules."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", "import " + STARTUP_MODULES],
                          cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT, check=False)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"start-up kernel failed: {proc.stderr.decode()[-500:]}")
    return seconds


# (kernel, reference seconds, seconds of jobs between samples, window,
# average) per workload.  The reference seconds are about each kernel's median
# on the 2-CPU host the benchmark was written on; they only fix the scale of
# the reported seconds.  An in-process sample lands in a slow spell or not,
# and the mean over samples estimates the share of time slowed, as a job
# that spans them sees it: laplacian-route's jobs of about a second take the
# samples just before and just after them, oracle-route's mix of 5 ms to
# 1.5 s jobs the four nearest (sampled after every job), and the
# millisecond jobs of spectral-sweep the six nearest (about 3 s).  A start-up
# sample carries rare outliers of its own, so a fresh interpreter takes the
# median of the two samples on either side.
KERNELS = {
    "laplacian-route": (small_kernel_seconds, 0.03, CALIBRATE_EVERY, 1, statistics.fmean),
    "oracle-route": (elimination_kernel_seconds, 0.025, 0.0, 2, statistics.fmean),
    "spectral-sweep": (small_kernel_seconds, 0.03, CALIBRATE_EVERY, 3, statistics.fmean),
    "cli-cold": (startup_kernel_seconds, STARTUP_REF_S, 0.0, 2, statistics.median),
}


def host_clock(args) -> HostClock:
    return HostClock(*KERNELS[args.workload])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = min(TAIL_BEYOND + 1, n)
    return ordered[n - rank], 100.0 * (n - rank + 1) / n


# --- the two kinds of run -----------------------------------------------------------


def timed_run(args, specs):
    import jobs
    setup_wall, setup = measure_setup(args, 1 if args.smoke else SETUP_REPEATS)
    workload = jobs.workload(args.workload, specs, run_cli, args.smoke)
    probes = run_probes(workload)
    tally = Tally()
    clock = host_clock(args)
    passes = run_passes(workload, tally, pass_count(workload, args.seconds), clock)
    latencies = [x for p in passes for x in p.scaled]
    wall = [x for p in passes for x in p.wall]
    tail_s, tail_pct = tail(latencies)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "accuracy_digits": (tally.digits if math.isfinite(tally.digits) else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    report = base_report(args, tally, probes)
    report.update(passes=len(passes), pass_s=[p.seconds for p in passes],
                  pass_wall_s=[math.fsum(p.wall) for p in passes],
                  job_p50_wall_s=statistics.median(wall), job_tail_wall_s=tail(wall)[0],
                  jobs_per_pass=len(workload.jobs),
                  samples=len(latencies), tail_percentile=tail_pct,
                  setup_s=setup, setup_wall_s=setup_wall, host_kernel=clock.summary(),
                  job_median_s={job.name: statistics.median(p.scaled[i] for p in passes)
                                for i, job in enumerate(workload.jobs)})
    return report, metrics, tally


def traced_run(args, specs):
    import jobs
    import tracer as tracing
    imports = import_times(1 if args.smoke else IMPORT_REPEATS)
    workload = jobs.workload(args.workload, specs, run_cli, args.smoke)
    probes = run_probes(workload)
    tally = Tally()
    tracer = tracing.Tracer()
    count = pass_count(workload, args.seconds / 2.0)

    # cli-cold also runs each command in process, warm, after every pass:
    # untraced in the first half for cli.<command>.main_s, traced in the second
    mains: dict[str, list[float]] = {}
    plain_hook = traced_hook = None
    if args.workload == "cli-cold":
        in_process = jobs.workload(args.workload, specs, jobs.run_cli_in_process, args.smoke)
        for job in in_process.jobs:  # fill caches before timing cli.main
            run_job(job, Tally())

        def plain_hook():
            for job in in_process.jobs:
                mains.setdefault(job.name, []).append(run_job(job, tally))

        def traced_hook():
            for job in in_process.jobs:
                run_job(job, tally, tracer, ("main", job.name))
    clock = host_clock(args)
    plain = run_passes(workload, tally, count, clock, after_pass=plain_hook)

    if args.workload == "cli-cold":
        workload = jobs.workload(args.workload, specs,
                                 tracer.wrap("child.cli", "child", run_cli), args.smoke)
    tracer.install()
    try:
        traced = run_passes(workload, tally, count, clock, tracer, traced_hook)
    finally:
        tracer.uninstall()

    ends = [p.first_span for p in traced[1:]] + [len(tracer.spans)]
    per_pass = [tracing.layer_metrics(tracer.spans, p.first_span, end)
                for p, end in zip(traced, ends)]
    layers = tracing.median_metrics(per_pass)
    uncovered = [1.0 - tracing.top_level_seconds(tracer.spans, p.first_span, p.end_span)
                 / math.fsum(p.wall) for p in traced]
    layers.update(imports)
    layers.update(cli_metrics(plain + traced, mains))
    layers["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                      / statistics.median(p.seconds for p in plain))
    layers["trace.uncovered_ratio"] = statistics.median(uncovered)
    layers["defects.known_failing"] = float(sum(p["fails"] for p in probes))
    write_spans(args, tracer.spans)

    report = base_report(args, tally, probes)
    report.update(plain_passes=len(plain), traced_passes=len(traced),
                  spans=len(tracer.spans), host_kernel=clock.summary())
    return report, {name: (value, layer_unit(name)) for name, value in layers.items()}, tally


def cli_metrics(passes, mains) -> dict[str, float]:
    """cli.<command>.wall_s / main_s medians and cli.startup_s = mean(wall - main)."""
    import workloads
    out = {}
    for i, command in enumerate(workloads.CLI_COMMANDS):
        walls = [p.wall[i] for p in passes] if mains else [0.0]
        out[f"cli.{command}.wall_s"] = statistics.median(walls)
        out[f"cli.{command}.main_s"] = statistics.median(mains.get(command, [0.0]))
    out["cli.startup_s"] = statistics.fmean(
        out[f"cli.{c}.wall_s"] - out[f"cli.{c}.main_s"] for c in workloads.CLI_COMMANDS)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_degree"):
        return "ratio"
    return "count"


def write_spans(args, spans) -> None:
    """All spans of the traced passes, written once the run has ended."""
    OUT_DIR.mkdir(exist_ok=True)
    origin = spans[0][2] if spans else 0.0
    rows = [[s[0], s[2] - origin, s[3] - origin, s[4], repr(s[5])] for s in spans]
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "fields": ["name", "start_s", "end_s", "parent", "job"],
                                "spans": rows}))


def base_report(args, tally, probes) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, "commit": git_commit(),
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "least_accurate": tally.digits_job,
        "checks_run": tally.checks_run, "checks_due": tally.checks_due,
        "failures": tally.failures, "known_defects": probes,
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


if __name__ == "__main__":
    sys.exit(main())
