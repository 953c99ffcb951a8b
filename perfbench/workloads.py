"""Workloads of the symcone benchmark: seeded job lists and output checks.

A workload turns a seed and a job count into a deterministic list of CLI
argument lists (jobs).  The program sees only those argument lists.  Each
job carries the check its JSON envelope must pass; the check returns the
job's work units or raises `CheckFailure`.  Checks use the tolerances of
the acceptance criteria (tests/test_acceptance.py), never byte comparison
with a stored output, so a change in the last digit does not fail a job.

Sizes shorten runs by job count, labels or conjugators while keeping each
workload's rows per kernel call, which is what tells the workloads apart.
"""
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


class CheckFailure(Exception):
    """A job's output broke one of its checks."""


@dataclass(frozen=True)
class Job:
    argv: Tuple[str, ...]
    # (envelope, memo shared by the run's jobs) -> work units
    check: Callable[[dict, dict], float]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    # (seed, count) -> at least `count` jobs
    jobs: Callable[[int, int], List[Job]]
    # nominal host-normalised seconds per job on a 2-core Xeon; sizes a
    # run's job list
    nominal_job_s: float
    # times a --trace 0 run goes over its job list; a job's time is its
    # fastest pass, so a second pass also warms the process
    passes: int = 2


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailure(what)


def _stream(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


# -- metric-random -----------------------------------------------------------
# One flow conjugator (plus the identity) over the default 10^4-point grid:
# every pullback is a 50-step RK4 flow of 10^4 rows.
METRIC_COUNT = 3


def _check_metric(env: dict, memo: dict) -> float:
    res = env["result"]
    _require(res["antisymmetry_ok"] is True, "antisymmetry_ok is false")
    _require(bool(res["dw_bound"]), "no dw_bound entries")
    for pair, entry in res["dw_bound"].items():
        _require(entry["ok"] is True, f"dw_bound {pair} not ok")
    for pair, d in res["distances"].items():
        _require(0.0 <= float(d["lo"]) <= float(d["hi"]), f"distance {pair} not an interval")
    count = int(env["config"]["count"])
    return float(count * (count - 1))


def metric_random(seed: int, count: int) -> List[Job]:
    rng = _stream("metric-random", seed)
    return [Job(("metric", "--family", "random", "--count", str(METRIC_COUNT),
                 "--pool", "1", "--seed", _seed(rng)), _check_metric)
            for _ in range(count)]


# -- spectrum-wells ----------------------------------------------------------
# C is drawn from [2, 8] (criterion 03's range), job j of a list of n from
# the j-th of n equal strata, so every list covers the whole range and its
# mix of cheap and dear spectra does not depend on the seed.  Strata run
# from high C down: cost is flat there and rises towards C = 2.
SPECTRUM_LABELS = 50
_C_LO, _C_HI = 2.0, 8.0


def _check_spectrum(env: dict, memo: dict) -> float:
    res, cfg = env["result"], env["config"]
    scanned = int(res["labels_scanned"])
    _require(scanned > 0, "no labels scanned: a vacuous confirmation")
    _require(res["scan_confirms_bound"] is True, "scan does not confirm the bound")
    _require(res["partial"] is False, "partial scan")
    a, top = float(cfg["a"]), float(cfg["top"])
    want = [j * math.pi * a * a for j in range(1, int(top / (math.pi * a * a)) + 1)]
    got = [float(x) for x in res["group_i"]]
    _require(len(got) == len(want)
             and all(abs(g - w) < 1e-9 for g, w in zip(got, want)),
             "round actions off k*pi*a^2 by 1e-9 or more")
    bound = float(res["group_ii_min_bound"])
    _require(float(res["scan_min_floor"]) >= bound * (1 - 1e-3),
             "scan floor below the C^2 bound")
    # the certified bound grows exactly as C^2 (criterion 03)
    per_c2 = bound / float(cfg["C"]) ** 2
    first = memo.setdefault("spectrum_bound_per_C2", per_c2)
    _require(abs(per_c2 - first) <= 1e-9 * first, "bound / C^2 not constant")
    return float(scanned)


def spectrum_wells(seed: int, count: int) -> List[Job]:
    rng = _stream("spectrum-wells", seed)
    width = (_C_HI - _C_LO) / count
    return [Job(("spectrum", "--C", f"{_C_HI - width * (j + rng.random()):.6f}",
                 "--labels", str(SPECTRUM_LABELS)), _check_spectrum)
            for j in range(count)]


# -- smoothing-audit ---------------------------------------------------------
# The certificate's 512-probe envelope and the 1600-row symplecticity
# stencil are fixed by the program; 200 points keeps the audited batches
# near 10^3 rows while one job stays near 17 s, so a run holds one job.
# Its cost follows the generator's monomial degrees (x^4 costs numpy a
# pow() where x^2 is a multiply; 0 to 2 quartic terms moved a job by about
# a third), so generators come from the first seeds whose
# `symcone.random_hamiltonian(2, 1, seed, amplitude=0.1)` has exactly one
# quartic term, the commonest case.
SMOOTHING_POINTS = 200
SMOOTHING_GENERATOR_SEEDS = (2, 5, 6, 9, 12, 13, 16, 18, 20, 28, 29, 31, 32, 33, 35, 36)


def _check_smoothing(env: dict, memo: dict) -> float:
    res = env["result"]
    checks = res["checks"]
    passes = [k for k in checks if k.endswith("_pass")]
    _require(len(passes) == 3, "expected three *_pass checks")
    for key in passes:
        _require(checks[key] is True, f"{key} is false")
    # criterion 08's tolerances, re-checked on the reported numbers
    _require(float(checks["identity_ball_max_move"]) < 1e-9, "identity ball moved")
    _require(float(checks["agreement_max_diff"]) < 1e-6, "lift agreement")
    _require(float(checks["symplecticity_defect"]) < 1e-6, "symplecticity defect")
    M, m = float(res["M"]), float(res["m"])
    _require(0.0 < m <= 1.0 <= M, "conformal envelope does not hold 1")
    _require(abs(float(res["K_factor"]) - 4.0 * M / m) <= 1e-12 * 4.0 * M / m,
             "K_factor is not 4M/m")
    # points audited in the identity ball plus points audited for agreement
    return 2.0 * int(env["config"]["points"])


def smoothing_audit(seed: int, count: int) -> List[Job]:
    rng = _stream("smoothing-audit", seed)
    return [Job(("smoothing-audit", "--points", str(SMOOTHING_POINTS),
                 "--seed", str(rng.choice(SMOOTHING_GENERATOR_SEEDS))),
                _check_smoothing)
            for _ in range(count)]


# -- sandwich-audit ----------------------------------------------------------
# Whole cycles of four short jobs: a 10^6-sample sandwich audit of a fresh
# expression, the capacity enclosure of the same expression (checked
# against the sandwich, its second route), an exact hyperboloid capacity,
# and the enclosure of another fresh expression.
SANDWICH_SAMPLES = 1_000_000


def random_expression(rng: random.Random) -> str:
    """Nonnegative bump-supported expression in the grammar of the README,
    drawn with the ranges of `symcone.random_hamiltonian` (n = 2)."""
    a0 = rng.uniform(0.4, 1.0)
    terms = [f"{rng.uniform(0.5, 1.0):.6g} * bump(rho; {a0:.6g}, "
             f"{a0 + rng.uniform(1.0, 2.2):.6g})"]
    for _ in range(2):
        c, a = rng.uniform(0.1, 0.5), rng.uniform(0.3, 1.2)
        b = a + rng.uniform(0.8, 2.0)
        var, p = rng.choice(("x1", "x2", "y1", "y2")), rng.choice((2, 4))
        terms.append(f"{c:.6g} * bump(rho; {a:.6g}, {b:.6g}) * mono({var}^{p})")
    return " + ".join(terms)


def _check_sandwich(env: dict, memo: dict) -> float:
    res, cfg = env["result"], env["config"]
    audit = res["audit"]
    samples = int(cfg["samples"])
    _require(int(audit["violations"]) == 0, f"{audit['violations']} violations")
    _require(0 <= int(audit["samples_inner"]) <= int(audit["samples_outer"]) <= samples,
             "containment counts out of order")
    memo[cfg["expr"]] = (float(res["inner"]["a"]), float(res["outer"]["a"]))
    return float(samples)


def _check_capacity_expr(env: dict, memo: dict) -> float:
    res = env["result"]
    lo, hi = float(res["lo"]), float(res["hi"])
    _require(res["exact"] is False and 0.0 < lo <= hi, "enclosure is not an interval")
    if env["config"]["expr"] in memo:
        a_in, a_out = memo[env["config"]["expr"]]
        for got, a in ((lo, a_in), (hi, a_out)):
            want = math.pi * a * a
            _require(abs(got - want) <= 1e-12 * want,
                     "capacity disagrees with the sandwich hyperboloids")
    return 0.0


def _check_capacity_hyperboloid(env: dict, memo: dict) -> float:
    res = env["result"]
    _require(res["exact"] is True and float(res["lo"]) == math.pi == float(res["hi"]),
             "capacity of the a = 1 hyperboloid is not exactly pi")
    return 0.0


def sandwich_audit(seed: int, count: int) -> List[Job]:
    rng = _stream("sandwich-audit", seed)
    jobs = []
    while len(jobs) < count:
        expr, other = random_expression(rng), random_expression(rng)
        beta = 10.0 ** rng.uniform(-1.0, 1.0)
        jobs += [
            Job(("sandwich", "--expr", expr, "--samples", str(SANDWICH_SAMPLES),
                 "--seed", _seed(rng)), _check_sandwich),
            Job(("capacity", "--expr", expr), _check_capacity_expr),
            Job(("capacity", "--hyperboloid", "--a", "1", "--b", f"{beta:.6g}"),
                _check_capacity_hyperboloid),
            Job(("capacity", "--expr", other), _check_capacity_expr),
        ]
    return jobs


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("metric-random", "ordered pairs bounded", metric_random, 3.3),
    Workload("spectrum-wells", "labels scanned", spectrum_wells, 0.45),
    # one job fills the run, and a second pass would not fit the time that
    # all runs of the benchmark get
    Workload("smoothing-audit", "audited points", smoothing_audit, 17.0, passes=1),
    Workload("sandwich-audit", "audit samples", sandwich_audit, 0.1),
)}
