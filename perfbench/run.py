"""Run the symcone benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload metric-random --seed 1 --seconds 12 --trace 0

A run's jobs are CLI argument lists fed to ``symcone.cli.main`` in this
process, as a closed loop with one client: a job starts when the previous
one has finished.  The list is made from the seed and sized so that the
passes over it take about ``--seconds`` at the nominal job time; it
depends only on workload, seed and ``--seconds``.  Every job's envelope
is checked (see workloads.py), and every later pass must repeat the first
pass's envelopes byte for byte.

``--trace 0`` measures the end-to-end metrics: it goes over the list
once or twice (the workload's passes) and takes each job's time as its
fastest pass, divided by how much slower than quiet the shared host ran
during it (hostclock.py); it also measures set-up in fresh interpreters.  ``--trace 1`` goes over the list
once untimed to warm the process, then once plain and once under the
tracer, and reports the per-layer metrics and the traced-over-plain
wall-time ratio.  The last line of output is one JSON object: correct,
attempted, failed, metrics.
"""
import os

# pin BLAS and OpenMP pools before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

from hostclock import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailure, Job, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
# the trivial job whose fresh-interpreter cost is set-up: import, parse,
# resolve and emit, with microseconds of computation
SETUP_ARGV = ("capacity", "--hyperboloid", "--a", "1", "--b", "1")
_SETUP_CHILD = """
import contextlib, io, json, sys, time
from hostclock import HostClock
clock = HostClock()
with clock.running():
    t0 = time.perf_counter()
    from symcone import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(sys.argv[1:])
    seconds = time.perf_counter() - t0
    slowdown = clock.slowdown(0)
print(json.dumps({"code": code, "seconds": seconds, "slowdown": slowdown,
                  "envelope": out.getvalue()}))
"""


def load_cli():
    """symcone.cli built from this checkout's sources, never an installed copy."""
    if not (SRC / "symcone" / "__init__.py").is_file():
        sys.exit(f"perfbench: no symcone package under {SRC}")
    sys.path.insert(0, str(SRC))
    from symcone import cli
    if Path(cli.__file__).resolve().parent != SRC / "symcone":
        sys.exit(f"perfbench: symcone imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    seconds: float
    text: str
    units: float = 0.0
    error: Optional[str] = None
    slowdown: float = 1.0  # of the host during the job (hostclock.py)

    @property
    def host_s(self) -> float:
        """Host-normalised seconds: wall seconds over the slowdown."""
        return self.seconds / self.slowdown


def invoke(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call; an
    exception or SystemExit becomes its exit code."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing job is a failed job; keep the loop going
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_job(cli, job: Job, memo: dict) -> Outcome:
    """Run one CLI job in process; a nonzero exit, an exception, SystemExit
    or a failed check makes it a failed job."""
    code, text, err, seconds = invoke(cli, job.argv)
    if code != 0:
        return Outcome(seconds, text, error=f"exit {code}: {err[-400:]}")
    try:
        units = job.check(json.loads(text), memo)
    except (CheckFailure, ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(seconds, text, error=f"check: {type(exc).__name__}: {exc}")
    return Outcome(seconds, text, units=units)


def _require_identical(first: Outcome, again: Outcome):
    if again.error is None and again.text != first.text:
        again.error = "repeated job: envelope not byte-identical"


def measure_setup() -> List[float]:
    """Host-normalised seconds to import symcone.cli and run SETUP_ARGV,
    one fresh interpreter each time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, *SETUP_ARGV],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up job failed: {proc.stderr[-400:]}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        lo = json.loads(rec["envelope"])["result"]["lo"]
        if rec["code"] != 0 or float(lo) != 3.141592653589793:
            sys.exit("perfbench: set-up job returned a wrong envelope")
        times.append(rec["seconds"] / rec["slowdown"])
    return times


def job_list(wl: Workload, seed: int, seconds: float) -> List[Job]:
    """The run's jobs: enough for the workload's passes to take about
    `seconds` at the nominal job time."""
    return wl.jobs(seed, max(1, round(seconds / wl.passes / wl.nominal_job_s)))


def _run_pass(cli, jobs: List[Job], memo: dict,
              clock: Optional[HostClock] = None) -> List[Outcome]:
    outcomes = []
    for job in jobs:
        mark = clock.mark() if clock else 0
        outcome = run_job(cli, job, memo)
        if clock:
            outcome.slowdown = clock.slowdown(mark)
        outcomes.append(outcome)
    return outcomes


def _require_repeat(first: List[Outcome], again: List[Outcome]):
    for a, b in zip(first, again):
        _require_identical(a, b)


def timed_passes(cli, wl: Workload, seed: int, seconds: float):
    """The passes over the job list, as lists of outcomes, and their wall
    time."""
    jobs = job_list(wl, seed, seconds)
    memo: dict = {}
    with HostClock().running() as clock:
        t0 = time.perf_counter()
        runs = [_run_pass(cli, jobs, memo, clock) for _ in range(wl.passes)]
        elapsed = time.perf_counter() - t0
    for later in runs[1:]:
        _require_repeat(runs[0], later)
    return runs, elapsed


def traced_passes(cli, wl: Workload, seed: int, seconds: float):
    """The job list once untimed, once plain and once traced."""
    jobs = job_list(wl, seed, seconds)
    memo: dict = {}
    warm = _run_pass(cli, jobs, memo)
    t0 = time.perf_counter()
    plain = _run_pass(cli, jobs, memo)
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        traced = _run_pass(cli, jobs, memo)
        traced_s = time.perf_counter() - t0
    _require_repeat(warm, plain)
    _require_repeat(warm, traced)
    return warm + plain + traced, tracer, plain_s, traced_s


def _p90(values) -> float:
    """90th percentile (inclusive method); a single sample is its own."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "note": "test_output.txt was recorded on another machine; "
                "its times are not comparable with these",
    }


def _failures(outcomes: List[Outcome]) -> List[str]:
    return [f"job {i}: {o.error}" for i, o in enumerate(outcomes) if o.error]


def end_to_end(cli, wl: Workload, seed: int, seconds: float,
               setup: List[float]) -> dict:
    runs, elapsed = timed_passes(cli, wl, seed, seconds)
    outcomes = [o for p in runs for o in p]
    # a job's time: its fastest pass, host-normalised
    best = [min(o.host_s for o in job_runs) for job_runs in zip(*runs)]
    units = sum(o.units for o in runs[0])
    fails = _failures(outcomes)
    metrics = {
        "work_per_s": (units / sum(best), "1/s"),
        "job_s.p50": (statistics.median(best), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # printed, not gated: fail_ratio is 0 when all is well, and no run
    # holds enough jobs for ten beyond the 90th percentile
    p90 = _p90(best)
    beyond = sum(1 for s in best if s > p90)
    slowdown = statistics.median(o.slowdown for o in outcomes)
    print(f"{wl.name}: {len(best)} jobs x {len(runs)} passes in {elapsed:.2f} s "
          f"wall ({units * len(runs) / elapsed:.6g} {wl.unit} per wall second, "
          f"median host slowdown {slowdown:.3f}); set-up over {len(setup)} "
          f"fresh interpreters; times below are host-normalised")
    print(f"  {'fail_ratio':34s} {len(fails) / len(outcomes):>16.6g} ratio "
          f"({len(fails)} of {len(outcomes)} jobs run)")
    print(f"  {'job_s.p90':34s} {p90:>16.6g} s "
          f"({len(best)} jobs, {beyond} beyond it)")
    return _result(outcomes, fails, metrics)


def per_layer(cli, wl: Workload, seed: int, seconds: float) -> dict:
    outcomes, tracer, plain_s, traced_s = traced_passes(cli, wl, seed, seconds)
    metrics = tracer.layer_metrics(traced_s)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    fails = _failures(outcomes)
    print(f"{wl.name}: warm-up pass, then {len(outcomes) // 3} jobs plain "
          f"in {plain_s:.2f} s and traced in {traced_s:.2f} s")
    print("  counts " + json.dumps(tracer.counts(), sort_keys=True))
    return _result(outcomes, fails, metrics)


def _result(outcomes, fails, metrics) -> dict:
    for line in fails:
        print(f"  FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    return {
        "correct": not fails,
        "attempted": len(outcomes),
        "failed": len(fails),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = load_cli()
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    setup = [] if args.trace else measure_setup()
    results = {}
    for name in names:
        wl = WORKLOADS[name]
        if args.trace:
            results[name] = per_layer(cli, wl, args.seed, args.seconds)
        else:
            results[name] = end_to_end(cli, wl, args.seed, args.seconds, setup)
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(f"result {name} " + json.dumps(res))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
