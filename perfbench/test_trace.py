"""The benchmark's own test: traced counts repeat exactly, and each workload
carries the load it was chosen for.

    python3 -m pytest perfbench/test_trace.py -q

Takes about a minute (one smoothing-audit job is about 20 s, run twice).
"""
import time

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS

SEED = 1


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture(scope="module")
def traced(cli):
    """Two traced passes over each workload's first job (first cycle for
    sandwich-audit), as {workload: [(tracer, wall_s), (tracer, wall_s)]}."""
    out = {}
    for name, wl in WORKLOADS.items():
        jobs = wl.jobs(SEED, 1)
        passes = []
        for _ in range(2):
            tracer, memo = Tracer(), {}
            with tracer.installed():
                t0 = time.perf_counter()
                outcomes = [run.run_job(cli, job, memo) for job in jobs]
                wall = time.perf_counter() - t0
            assert [o.error for o in outcomes] == [None] * len(jobs)
            passes.append((tracer, wall))
        out[name] = passes
    return out


def _metrics(traced, name):
    tracer, wall = traced[name][0]
    return {key: value for key, (value, _) in tracer.layer_metrics(wall).items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(traced, name):
    (first, _), (second, _) = traced[name]
    counts = first.counts()
    assert any(value > 0 for key, value in counts.items() if key != "cli.calls")
    assert counts == second.counts()


def test_tracer_restores_the_package(cli):
    from symcone import domains, exprs

    before = (cli.main, domains.SmoothedWell.value, exprs.ExpressionHamiltonian.__init__)
    with Tracer().installed():
        assert cli.main is not before[0]
    assert (cli.main, domains.SmoothedWell.value,
            exprs.ExpressionHamiltonian.__init__) == before


def test_metric_random_is_flow_bound(traced):
    m = _metrics(traced, "metric-random")
    assert m["contact.flow.time_share"] > 0.5
    assert m["exprs.grad.rows_per_call"] == 10_000
    assert m["exprs.grad_per_rk_stage"] == 2.0
    assert m["orbits.orbit.calls"] == 0


def test_spectrum_wells_bypasses_the_flow(traced):
    m = _metrics(traced, "spectrum-wells")
    assert m["orbits.orbit.time_share"] > 0.5
    assert m["exprs.grad.calls"] == m["exprs.eval.calls"] == 0
    assert m["contact.flow.calls"] == 0
    assert m["domains.well_value.rows_per_call"] == 1
    assert 0.0 < m["orbits.orbit_share"] < 1.0


def test_smoothing_audit_runs_the_smoothed_map(traced):
    m = _metrics(traced, "smoothing-audit")
    assert m["smoothing.map.calls"] > 0 and m["contact.flow.calls"] > 0
    assert 1.0 <= m["exprs.grad_per_rk_stage"] <= 2.0


def test_sandwich_audit_evaluates_values_at_scale(traced):
    m = _metrics(traced, "sandwich-audit")
    assert m["domains.audit.samples"] == 1_000_000
    assert 0.0 < m["domains.audit.accept_ratio"] < 0.2
    assert m["exprs.eval.rows"] >= 1_000_000 and m["exprs.grad.calls"] == 0
    assert m["capacity.calls"] == 3 and m["jsonio.dumps.calls"] == 4
