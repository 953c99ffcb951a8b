import importlib.util
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import symcone
from symcone import cli, growth, orbits, sampling, smoothing
from symcone.cli import _build_parser, main
from symcone.growth import ConeFamily, Conjugator
from symcone.smoothing import SmoothedSymplectization, symplecticity_defect

from conftest import lift_at_the_maps_step


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """A new interpreter that imports this checkout's package."""
    src = str(Path(symcone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)


def test_capacity_hyperboloid_stdout(capsys):
    code, out, err = run_cli(capsys, ["capacity", "--hyperboloid",
                                      "--a", "1.0", "--b", "1.0"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"config", "version", "result"}
    assert doc["result"]["exact"] is True
    assert doc["result"]["lo"] == "3.1415926535897931"
    assert doc["result"]["hi"] == doc["result"]["lo"]
    assert doc["config"]["command"] == "capacity"


def test_capacity_needs_an_input(capsys):
    code, out, err = run_cli(capsys, ["capacity"])
    assert code == 2
    assert "symcone:" in err


@pytest.mark.parametrize("argv, named", [
    (["capacity", "--hyperboloid", "--a", "-1"], "got a = -1"),
    # no capacity at full index
    (["capacity", "--hyperboloid", "--k", "2", "--n", "2"], "k = 2 >= n = 2"),
    # squares that leave the positive finite floats
    (["capacity", "--hyperboloid", "--a", "1e200"], "got a = 1e+200"),
    (["capacity", "--hyperboloid", "--a", "inf"], "got a = inf"),
    (["spectrum", "--a", "1e200"], "got a = 1e+200"),
    (["spectrum", "--a", "inf", "--labels", "5"], "got a = inf"),
    (["spectrum", "--C", "1e200"], "got C = 1e+200"),
    (["spectrum", "--b", "1e-200", "--labels", "5"], "got b = 1e-200"),
    (["squeeze", "--s", "1e200", "--candidates", "1", "--samples", "50"],
     "got s * a = 1e+200"),
    (["squeeze", "--a", "inf"], "got a = inf"),
    (["squeeze", "--s", "inf"], "got s * a = inf"),
    # round-orbit counts that are not finite, or past GROUP_I_MAX
    (["spectrum", "--top", "inf", "--labels", "5"], "window top inf"),
    (["spectrum", "--top", "1e300", "--a", "1e-100"], "window top 1e+300"),
    (["spectrum", "--top", "1e300", "--labels", "5"], "window top 1e+300"),
    # 314163 / pi = 100001.2 round orbits at a = 1
    (["spectrum", "--top", "314163", "--labels", "5"],
     "window top 314163 holds more than 100000 round orbits"),
    # b^2 is a normal float, but -C^2 / b^2 or pi a^2 (1 - e) is not finite
    (["spectrum", "--labels", "5", "--b", "1e-154"], "minimum energy -inf"),
    (["spectrum", "--labels", "5", "--b", "3e-154"],
     "puts the action floors pi a^2 (1 - e) past the finite floats"),
    # an integrable domain has a round block beside its well block
    (["spectrum", "--n", "1", "--k", "1"],
     "an integrable domain needs n >= 2, got 1"),
], ids=["negative-a", "full-index", "capacity-a-overflows", "capacity-a-inf",
        "spectrum-a-overflows", "spectrum-a-inf", "spectrum-C-overflows",
        "spectrum-b-underflows", "squeeze-s-overflows", "squeeze-a-inf",
        "squeeze-s-inf", "spectrum-top-inf", "spectrum-count-overflows",
        "spectrum-count-1e300-at-a-1", "spectrum-count-over-the-cap",
        "spectrum-energy-overflows", "spectrum-floors-overflow",
        "spectrum-one-block"])
def test_invalid_geometry_is_exit_2(capsys, argv, named):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("symcone: ") and named in err


def test_spectrum_lists_round_orbits_up_to_the_cap(capsys):
    # 314162 / pi = 100000.9: the window holds exactly GROUP_I_MAX round
    # orbits, one short of the refusal above
    code, out, err = run_cli(capsys, ["spectrum", "--top", "314162",
                                      "--labels", "5"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["result"]["group_i"]) == orbits.GROUP_I_MAX


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}', encoding="utf-8")
    code, _, err = run_cli(capsys, ["capacity", "--hyperboloid",
                                    "--config", str(cfg)])
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("argv, cfg, message", [
    (["capacity", "--hyperboloid"], {"a": "x"}, "a must be a number, got 'x'"),
    (["spectrum"], {"labels": 2.5}, "labels must be an integer, got 2.5"),
    (["capacity", "--hyperboloid"], {"n": True},
     "n must be an integer, got True"),
    (["metric"], {"family": "bogus"},
     "family must be one of scaling, random, got 'bogus'"),
    (["spectrum"], {"labels": None}, "labels must be an integer, got None"),
    (["capacity", "--hyperboloid"], {"a": 10 ** 400}, "a is out of range"),
    # values are checked before unknown keys are rejected
    (["capacity", "--hyperboloid"], {"bogus": 1, "a": "x"},
     "a must be a number, got 'x'"),
], ids=["str-for-float", "float-for-int", "bool-for-int", "outside-choices",
        "null-for-int", "too-large-for-float", "bad-value-and-unknown-key"])
def test_config_values_are_type_checked(tmp_path, capsys, argv, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run_cli(capsys, argv + ["--config", str(path)])
    assert code == 2 and out == ""
    assert err == f"symcone: config value of {message}\n"


def test_integer_config_value_for_a_float_matches_the_flag(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"hyperboloid": true, "a": 2}', encoding="utf-8")
    outs = [run_cli(capsys, ["capacity"] + extra)
            for extra in (["--config", str(path)], ["--hyperboloid", "--a", "2"])]
    assert outs[0][0] == outs[1][0] == 0
    assert outs[0][1] == outs[1][1]
    assert json.loads(outs[0][1])["config"]["a"] == "2"


def test_config_null_where_the_default_is_unset_is_the_default(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"eps": null}', encoding="utf-8")
    outs = [run_cli(capsys, ["spectrum", "--labels", "20"] + extra)
            for extra in (["--config", str(path)], [])]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])["config"]["eps"] is None


def test_readme_examples_parse():
    """Every `symcone ...` line of the README's Command line section names
    a subcommand and flags the parameter table declares."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = [line.strip() for line in section.splitlines()
                if line.strip().startswith("symcone ")]
    assert len(examples) == 7
    parser = _build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"a": 2.0}', encoding="utf-8")
    code, out, _ = run_cli(capsys, ["capacity", "--hyperboloid",
                                    "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["result"]["lo"] == f"{math.pi * 4.0:.17g}"
    # explicit flag outranks the file
    code, out, _ = run_cli(capsys, ["capacity", "--hyperboloid",
                                    "--config", str(cfg), "--a", "3.0"])
    assert json.loads(out)["result"]["lo"] == f"{math.pi * 9.0:.17g}"


def test_output_is_byte_deterministic(tmp_path, capsys):
    # identical resolved configs (including the output path) must produce
    # byte-identical documents
    p = tmp_path / "run.json"
    blobs = []
    for _ in range(2):
        code, _, _ = run_cli(capsys, ["spectrum", "--labels", "40",
                                      "--out", str(p)])
        assert code == 0
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["result"]["labels_scanned"] == 40
    assert doc["result"]["partial"] is False


def test_no_bare_floats_in_envelope(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--labels", "40"])
    assert code == 0

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_path_is_exit_2(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "run.txt"
    code, out, err = run_cli(capsys, ["spectrum", "--labels", "5",
                                      flag, str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"symcone: cannot write {path}: ")


# workload-style (see perfbench/workloads.py): a pure bump and two
# monomial terms, its metadata estimated
WORKLOAD_EXPR = ("0.83 * bump(rho; 0.62, 2.1) + 0.31 * bump(rho; 0.45, 1.9) * mono(y2^4)"
                 " + 0.22 * bump(rho; 0.9, 2.4) * mono(y2^4)")


@pytest.mark.parametrize("name, argv", [
    ("capacity_hyperboloid_a2_b3.json",
     ["capacity", "--hyperboloid", "--a", "2", "--b", "3"]),
    ("sandwich_readme_samples20000.json",
     ["sandwich", "--expr", "1 * bump(rho; 1, 3)", "--M", "1", "--m", "0.5",
      "--rho0", "0.1", "--rho1", "3", "--samples", "20000"]),
    ("metric_scaling_pool0_grid2000.json",
     ["metric", "--pool", "0", "--grid", "2000"]),
    ("sandwich_workload_expr_samples200000.json",
     ["sandwich", "--expr", WORKLOAD_EXPR, "--samples", "200000"]),
    ("spectrum_C3_labels200.json",
     ["spectrum", "--C", "3", "--labels", "200"]),
    ("squeeze_candidates1_samples500.json",
     ["squeeze", "--candidates", "1", "--samples", "500"]),
    ("smoothing_audit_points50_seed7.json",
     ["smoothing-audit", "--points", "50", "--seed", "7"]),
    ("smoothing_audit_points50_seed12.json",
     ["smoothing-audit", "--points", "50", "--seed", "12"]),
    ("smoothing_audit_n3_k2_points50.json",
     ["smoothing-audit", "--n", "3", "--k", "2", "--points", "50"]),
    ("metric_random_count3_pool1_seed10.json",
     ["metric", "--family", "random", "--count", "3", "--pool", "1",
      "--seed", "10"]),
])
def test_envelope_matches_golden_bytes(capsys, name, argv):
    # The capacity, sandwich and scaling metric runs use exact arithmetic
    # and seeded PCG64 draws only (the scaling metric run's one conjugator
    # is the identity, so it steps no flow), so the recorded envelopes hold
    # on every platform.  The workload expression's metadata is estimated:
    # its inner probes pass through numpy's log and exp, but both monomials
    # are in y2, so m is 0.75 * 0.83 whatever their last bits (the least
    # monomial part, 1.3e-18, is 40 times below half an ulp of 0.83).  The
    # spectrum run goes through numpy's cos, sqrt and power, so its bytes
    # pin those of the x86-64 Linux build they were recorded on.  Like it,
    # the squeeze and smoothing-audit runs pin the exp, sqrt and power bits
    # of that build: their sphere samples and smoothed maps go through all
    # three.  So does the random metric run, which steps its pool's one
    # flow: that flow's log conformal factor moves the h0|h2 distance's lo.
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    golden = Path(__file__).resolve().parent / "golden" / name
    assert out.encode("utf-8") == golden.read_bytes()


def test_spectrum_csv_table(tmp_path, capsys):
    csv_path = tmp_path / "spec.csv"
    code, _, _ = run_cli(capsys, ["spectrum", "--labels", "40",
                                  "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    preamble = [ln for ln in lines if ln.startswith("# ")]
    assert len(preamble) == 2
    header_idx = len(preamble)
    assert lines[header_idx] == "group,index_or_label,action,bound_flag"
    body = lines[header_idx + 1:]
    first = body[0].split(",")
    assert first[0] == "i" and first[1] == "1" and first[3] == "exact"
    assert float(first[2]) == pytest.approx(math.pi, rel=1e-15)
    groups = {row.split(",")[0] for row in body}
    assert groups == {"i", "ii"}
    flags = {row.split(",")[3] for row in body if row.startswith("ii")}
    assert flags == {"ok"}


def test_spectrum_csv_flags_a_floor_below_the_bound(tmp_path, capsys, monkeypatch):
    label_floors = orbits._label_floors

    def one_low(system, es):
        floors = label_floors(system, es)
        floors[3] = 0.0  # under any positive bound
        return floors

    monkeypatch.setattr(orbits, "_label_floors", one_low)
    csv_path = tmp_path / "spec.csv"
    code, out, err = run_cli(capsys, ["spectrum", "--labels", "20",
                                      "--csv", str(csv_path)])
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["scan_confirms_bound"] is False
    flags = [row.split(",")[3] for row in
             csv_path.read_text(encoding="utf-8").splitlines()
             if row.startswith("ii,")]
    assert flags == ["ok"] * 3 + ["below"] + ["ok"] * 16


def test_spectrum_takes_an_explicit_eps(capsys):
    # C / 12 is the default blend width; giving it explicitly changes
    # nothing but the recorded config, and a width past C / 10 is refused
    argv = ["spectrum", "--C", "3", "--labels", "20"]
    _, default, _ = run_cli(capsys, argv)
    code, out, err = run_cli(capsys, argv + ["--eps", "0.25"])
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == json.loads(default)["result"]
    assert json.loads(out)["config"]["eps"] == "0.25"
    code, out, err = run_cli(capsys, argv + ["--eps", "0.2"])
    assert code == 0
    assert json.loads(out)["result"]["scan_min_floor"] != \
        json.loads(default)["result"]["scan_min_floor"]
    code, out, err = run_cli(capsys, argv + ["--eps", "0.3"])
    assert code == 2 and out == ""
    assert err == "symcone: need 0 < eps < C/10, got C=3.0, eps=0.3\n"


@pytest.mark.parametrize("C", ["5.281945", "7.188219852135678"])
def test_spectrum_runs_at_c_whose_square_pow_rounds_apart(capsys, C):
    # the wells at these C were once refused by their own grid audit,
    # whose 4C^2 rounded one ulp apart from the well's (exit 4)
    code, out, err = run_cli(capsys, ["spectrum", "--C", C, "--labels", "5"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["labels_scanned"] == 5


def test_spectrum_budget_writes_partial_and_exits_3(tmp_path, capsys):
    out_path = tmp_path / "partial.json"
    csv_path = tmp_path / "partial.csv"
    code, _, err = run_cli(capsys, ["spectrum", "--labels", "40",
                                    "--budget", "15", "--out", str(out_path),
                                    "--csv", str(csv_path)])
    assert code == 3
    assert err == "symcone: label scan budget 15 exceeded at 15/40\n"
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["result"]["partial"] is True
    assert doc["result"]["labels_scanned"] == 15
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    assert sum(row.startswith("ii,") for row in rows) == 15


@pytest.mark.parametrize("argv, message", [
    (["metric", "--grid", "0"], "need at least 1 grid point, got 0"),
    (["metric", "--grid", "-5"], "need at least 1 grid point, got -5"),
    (["smoothing-audit", "--points", "0"], "need at least 1 audited point, got 0"),
    (["smoothing-audit", "--points", "-3"], "need at least 1 audited point, got -3"),
    (["sandwich", "--expr", "1 * bump(rho; 1, 3)", "--samples", "0"],
     "need at least 1 audit sample, got 0"),
    (["metric", "--pool", "-1", "--grid", "10"],
     "count of seeds must be nonnegative, got -1"),
    (["squeeze", "--candidates", "-1"], "count of seeds must be nonnegative, got -1"),
    (["squeeze", "--candidates", "1", "--samples", "0"],
     "need at least 1 sweep sample, got 0"),
    (["squeeze", "--candidates", "1", "--samples", "-5"],
     "need at least 1 sweep sample, got -5"),
    (["metric", "--family", "random", "--count", "-1"],
     "need at least 2 family elements, got -1"),
    (["metric", "--family", "random", "--count", "0"],
     "need at least 2 family elements, got 0"),
    (["metric", "--family", "random", "--count", "1"],
     "need at least 2 family elements, got 1"),
    (["metric", "--family", "random", "--n", "0", "--grid", "10", "--pool", "1"],
     "need n >= 1, got 0"),
    (["squeeze", "--candidates", "0", "--samples", "100"],
     "need at least 1 candidate map, got none"),
    (["spectrum", "--top", "0"], "window top must be positive"),
    (["metric", "--s", "0"], "scale must be positive"),
    (["metric", "--s", "-2"], "scale must be positive"),
    (["metric", "--s", "1"], "scale 1.0 repeats element f"),
    (["squeeze", "--n", "0", "--candidates", "1", "--samples", "10"],
     "need n >= 1, got 0"),
    (["metric", "--pool", "0", "--grid", "100", "--s", "1e-320"],
     "scale 1e-320 is not a normal finite float"),
    (["metric", "--s", "nan"], "scale nan is not a normal finite float"),
    (["metric", "--s", "inf"], "scale inf is not a normal finite float"),
    (["smoothing-audit", "--points", "1", "--eps", "1e-320"],
     "eps 1e-320 is not a normal finite float"),
    (["smoothing-audit", "--points", "1", "--eps", "1e-310"],
     "eps 1e-310 is not a normal finite float"),
    (["squeeze", "--candidates", "1", "--samples", "10", "--eps", "1e-320"],
     "eps 1e-320 is not a normal finite float"),
    (["spectrum", "--budget", "-1", "--labels", "10"],
     "label scan budget must be nonnegative, got -1"),
    (["sandwich", "--expr", "1 * bump(rho; 1, 3)", "--n", "0", "--samples", "10"],
     "need n >= 1, got 0"),
    (["capacity", "--expr", "1 * bump(rho; 1, 3)", "--n", "0"], "need n >= 1, got 0"),
    (["capacity", "--expr", "1 * bump(rho; 1, 3)", "--n", "-1"],
     "need n >= 1, got -1"),
    (["capacity", "--hyperboloid", "--n", "0"], "need n >= 1, got 0"),
])
def test_sizes_below_one_are_exit_2(capsys, argv, message):
    # an empty grid, sample, sweep, candidate list, family or spectrum
    # window would give a vacuous bound, audit, verdict, metric or spectrum,
    # and a negative count or an empty phase space (a sweep or a
    # hyperboloid capacity at n = 0 included) has no meaning; so has a
    # scale that is not positive and a scaling family that holds one
    # element twice; a subnormal scale would overflow 1 / s into an
    # infinite distance, and nan or inf is no scale at all; a subnormal
    # eps would overflow the cutoff's slope, and a negative label budget
    # scans nothing
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"symcone: {message}\n"


@pytest.mark.parametrize("argv", [
    ["sandwich", "--expr", "1 * bump(rho; 1, 3)", "--samples", "100"],
    ["capacity", "--expr", "1 * bump(rho; 1, 3)"],
    ["metric", "--grid", "10", "--pool", "1"],
    ["squeeze", "--candidates", "1", "--samples", "10"],
    ["smoothing-audit", "--points", "1"],
])
def test_negative_seed_is_exit_2(capsys, tmp_path, argv):
    message = "symcone: seed must be a nonnegative integer, got -1\n"
    assert run_cli(capsys, argv + ["--seed", "-1"]) == (2, "", message)
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"seed": -1}', encoding="utf-8")
    assert run_cli(capsys, argv + ["--config", str(cfg)]) == (2, "", message)


def test_spectrum_of_a_large_well_runs(capsys):
    code, out, err = run_cli(capsys, ["spectrum", "--C", "16", "--labels", "10"])
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["labels_scanned"] == 10


def test_sandwich_clean_run(capsys):
    code, out, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3)",
        "--M", "1.0", "--m", "0.5", "--rho0", "0.1", "--rho1", "3.0",
        "--samples", "20000"])
    assert code == 0 and err == ""
    res = json.loads(out)["result"]
    assert res["audit"]["violations"] == 0
    assert float(res["inner"]["a"]) ** 2 == pytest.approx(0.125, rel=1e-12)
    assert float(res["outer"]["a"]) ** 2 == pytest.approx(4.0, rel=1e-12)


def test_sandwich_metadata_must_be_complete(capsys):
    code, _, err = run_cli(capsys, ["sandwich", "--expr",
                                    "1 * bump(rho; 1, 3)", "--M", "1.0"])
    assert code == 2 and "support metadata" in err
    code, out, err = run_cli(capsys, ["sandwich"])
    assert code == 2 and out == ""
    assert err == "symcone: an --expr Hamiltonian expression is required\n"


def test_sandwich_containment_failure_is_exit_4(capsys):
    # The estimated metadata of this Hamiltonian put a sample outside the
    # certified sandwich: the report is still written and the exit code
    # flags it.
    code, out, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3) * mono(x1^8)",
        "--samples", "20000"])
    violations = json.loads(out)["result"]["audit"]["violations"]
    assert code == 4 and violations > 0
    assert err == f"symcone: containment audit failed with {violations} violations\n"


@pytest.mark.parametrize("M, m, rho0, rho1, message", [
    ("0.5", "0.5", "0.1", "3", "sampled sup 1 exceeds M=0.5"),
    ("1", "0.5", "0.1", "1.2", "support leaks past rho1"),
    ("5", "5", "0.1", "3",
     "m=5.0 is not a lower bound on the inner region (sampled min 1)")],
    ids=["M-below-sup", "support-past-rho1", "m-above-floor"])
def test_sandwich_audits_supplied_metadata(capsys, M, m, rho0, rho1, message):
    # Metadata the Hamiltonian breaks is refused before the containment
    # audit, so nothing is written.
    code, out, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3)",
        "--M", M, "--m", m, "--rho0", rho0, "--rho1", rho1])
    assert code == 4 and out == ""
    assert err == f"symcone: {message}\n"


def test_sandwich_rejects_nonpositive_floor(capsys):
    code, _, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3)",
        "--M", "1.0", "--m", "0.0", "--rho0", "0.1", "--rho1", "3.0"])
    assert code == 2 and "not in g+" in err


@pytest.mark.parametrize("M, m, rho0, rho1", [
    ("0.01", "0.5", "0.1", "3"), ("1", "0.5", "3", "3")],
    ids=["M-below-m", "rho0-past-rho1"])
def test_sandwich_rejects_contradictory_metadata(capsys, M, m, rho0, rho1):
    # No Hamiltonian satisfies this metadata: refused before any sampling.
    code, out, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3)",
        "--M", M, "--m", m, "--rho0", rho0, "--rho1", rho1])
    assert code == 2 and out == ""
    assert err == (f"symcone: support metadata contradicts itself: need "
                   f"m <= M and rho0 < rho1, got M={M}, m={m}, rho0={rho0}, "
                   f"rho1={rho1}\n")


def test_sandwich_certificate_margins_scale_with_their_conditions(capsys):
    # rho0 = 1e-12 leaves the third certificate inequality the margin
    # rho0 / 2 = 5e-13: far below 1e-9, but half its own scale rho0, so
    # the certificate stands and the audit samples it like any other.
    code, out, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3)",
        "--M", "1", "--m", "0.5", "--rho0", "1e-12", "--rho1", "3",
        "--samples", "20000"])
    assert code == 0 and err == ""
    res = json.loads(out)["result"]
    assert res["audit"]["violations"] == 0
    assert float(res["outer"]["b"]) ** 2 == pytest.approx(2e-12, rel=1e-12)


def test_capacity_enclosure_scales_inversely_with_the_amplitude(capsys):
    # V(c H) is V(H) scaled by c^(-1/2), so its capacity is divided by c;
    # at c = 1e9 the certificate's margins T / 2 and 1 / m are below 1e-9
    # but each half its own scale, and the enclosure follows the scaling
    def enclosure(expr):
        code, out, err = run_cli(capsys, ["capacity", "--expr", expr])
        assert code == 0 and err == ""
        res = json.loads(out)["result"]
        return np.array([float(res["lo"]), float(res["hi"])])

    np.testing.assert_allclose(enclosure("1e9 * bump(rho; 1, 3)"),
                               enclosure("1 * bump(rho; 1, 3)") / 1e9, rtol=1e-9)


def test_bad_expression_is_exit_2(capsys):
    code, _, err = run_cli(capsys, ["capacity", "--expr", "bump(rho; 3, 1)"])
    assert code == 2 and "symcone:" in err


@pytest.mark.parametrize("expr, message", [
    ("1 * bump(rho; 1, 3) 2", "trailing input near '2'"),
    ("1 * bump(rho; 1, 3) * mono(x1^1.5)",
     "exponent must be a positive integer, got 1.5"),
    ("1 * bump(rho; 1, 3) * mono()", "empty mono()"),
    ("1 * rho", "expected bump or mono, got 'rho'"),
    # parses, but the metadata estimate finds negative values
    ("1 * bump(rho; 1, 3) * mono(x1)",
     "expression takes negative values; not usable here"),
    # a number that overflows to inf is refused by its text: an exponent
    # would not convert to an integer, a bump end would give the profile
    # an infinite width, and a coefficient would give NaN metadata
    ("1 * bump(rho; 1, 3) * mono(x1^1e400)", "number 1e400 is not finite"),
    ("1 * bump(rho; 1, 1e400)", "number 1e400 is not finite"),
    ("1e400 * bump(rho; 1, 3)", "number 1e400 is not finite"),
], ids=["trailing-input", "fractional-exponent", "empty-mono", "bare-rho",
        "negative-values", "infinite-exponent", "infinite-bump-end",
        "infinite-coefficient"])
def test_expression_parse_errors_are_exit_2(capsys, expr, message):
    code, out, err = run_cli(capsys, ["capacity", "--expr", expr])
    assert code == 2 and out == ""
    assert err == f"symcone: {message}\n"


def test_squeeze_sweep_small(capsys):
    code, out, _ = run_cli(capsys, ["squeeze", "--candidates", "1",
                                    "--samples", "500", "--s", "1.5"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "IMPOSSIBLE"
    th = {k: float(v) for k, v in res["theoretical"].items()}
    assert th["s2w_lo"] == pytest.approx(2.25 * math.pi, rel=1e-12)
    assert th["s2w_lo"] > th["w_hi"]
    assert all(c["escapes"] for c in res["candidates"])


@pytest.mark.parametrize("argv", [
    ["--n", "4", "--k", "1", "--candidates", "1", "--samples", "2000"],
    ["--n", "5", "--k", "1", "--candidates", "1", "--samples", "500"],
    # s*V = {u/2.25 - v/2025 < 1} fills almost none of its box [-180, 180]^4
    ["--a", "1", "--b", "30", "--samples", "100", "--candidates", "1"],
], ids=["n-4", "n-5", "b-30"])
def test_squeeze_draws_thin_domains_in_any_dimension(capsys, argv):
    """The sweep draws s*V by direction and radius, so a domain that fills
    little of its box, in high dimension or with a long v axis, is swept
    like any other."""
    code, out, err = run_cli(capsys, ["squeeze"] + argv)
    assert (code, err) == (0, "")
    res = json.loads(out)["result"]
    assert res["verdict"] == "IMPOSSIBLE"
    assert [c["escapes"] for c in res["candidates"]] == [True]


def test_squeeze_below_unit_scale_is_vacuous(capsys):
    code, out, _ = run_cli(capsys, ["squeeze", "--candidates", "1",
                                    "--samples", "200", "--s", "0.5"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "VACUOUS"


def test_smoothing_audit_passes(capsys, monkeypatch):
    maps = []
    original = SmoothedSymplectization._integrate

    def counted(self, zs, thetas):
        maps.append(self)
        return original(self, zs, thetas)

    monkeypatch.setattr(SmoothedSymplectization, "_integrate", counted)
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "150",
                                      "--seed", "31"])
    assert code == 0 and err == ""
    checks = json.loads(out)["result"]["checks"]
    assert checks["identity_ball_pass"] is True
    assert checks["agreement_pass"] is True
    assert checks["symplecticity_pass"] is True
    # one integration of the smoothed map serves all three checks and the
    # direct lift ...
    assert len(maps) == 1
    monkeypatch.undo()
    # ... and gives, bitwise, the three-call route on the points the
    # command draws (n=2, eps=0.05, seed 31)
    sm, pts, eps = maps[0], 150, 0.05
    K = sm.certificate.K_factor
    rng = sampling.rng(32)
    dirs = sampling.sphere_points(2, pts, 33)
    zs_in = np.sqrt(eps * rng.uniform(0.05, 0.999, size=pts))[:, None] * dirs
    zs_out = np.sqrt(K * eps * rng.uniform(1.001, 4.0, size=pts))[:, None] * dirs
    r_all = np.concatenate([eps * rng.uniform(0.05, 0.999, size=34),
                            eps * rng.uniform(1.001, K, size=33),
                            K * eps * rng.uniform(1.001, 4.0, size=33)])
    zs_all = np.sqrt(r_all)[:, None] * sampling.sphere_points(2, 100, 34)
    want = [np.linalg.norm(sm(zs_in) - zs_in, axis=1),
            np.linalg.norm(sm(zs_out) - lift_at_the_maps_step(sm, zs_out), axis=1),
            symplecticity_defect(sm, zs_all)]
    got = [float(checks[key]) for key in ("identity_ball_max_move",
                                          "agreement_max_diff",
                                          "symplecticity_defect")]
    assert got == [float(np.max(w)) for w in want]


def test_smoothing_audit_makes_one_kernel_call_per_rk_stage(capsys, monkeypatch):
    rows, mapped = [], []
    original = cli.random_hamiltonian
    integrate = SmoothedSymplectization._integrate

    def counted_generator(*args, **kwargs):
        K = original(*args, **kwargs)
        grad = K.grad_fn

        def counted(th):
            rows.append(th.shape[0])
            return grad(th)

        K.grad_fn = counted
        return K

    def recorded(self, zs, thetas):
        mapped.append(zs)
        return integrate(self, zs, thetas)

    monkeypatch.setattr(cli, "random_hamiltonian", counted_generator)
    monkeypatch.setattr(SmoothedSymplectization, "_integrate", recorded)
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "10"])
    assert code == 0 and err == ""
    # one call for the autonomous generator's rate bound, in the
    # certificate the audit places its rows by and builds the map from;
    # then one pilot call whose runs are 16 and 32 DOP853 steps, each on
    # the map's own 112 rows: both runs for 16 steps x 12 stages, then
    # the finer one alone; the pair passes, so no second pair runs
    pilot_rows = smoothing.PILOT_AMBIENT + 512 // smoothing.PILOT_PROBE_STRIDE
    step = json.loads(out)["result"]["step"]
    assert step["h"] == "0.0625" and step["estimate"] is not None
    main = 12 * 16
    assert rows[:1] == [4096]
    pilot = rows[1:-main]
    assert pilot == [2 * pilot_rows] * 12 * 16 + [pilot_rows] * 12 * 16
    # then 16 steps x 12 stages at the chosen step h = 1/16, each stage
    # one call on every ambient row outside the identity ball (10 outside,
    # and the 16 stencil copies of the 66 of 100 rows drawn outside it),
    # the 10 lift rows and the 512 probes; the 10 rows inside the ball and
    # the stencil copies of the 34 drawn there take no steps
    (zs,) = mapped
    outside = np.sum(zs * zs, axis=1) > 0.05  # the default eps
    assert not outside[:10].any() and outside[10:20].all()
    assert np.sum(outside[20:]) == 16 * 66
    assert rows[-main:] == [10 + 16 * 66 + 10 + 512] * main


@pytest.mark.parametrize("argv", [
    ["smoothing-audit", "--points", "10"],
    ["squeeze", "--candidates", "1", "--samples", "500"],
], ids=["smoothing-audit", "squeeze"])
def test_refuted_certificate_returns_no_result(capsys, monkeypatch, argv):
    # The sampled probes refute a rate bound of exactly 1 in the map's
    # first integration, so no result is written.
    monkeypatch.setattr(smoothing, "_rate_envelope", lambda K: (1.0, 1.0))
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and out == ""
    assert err.startswith("symcone: sampled conformal factor escapes its bound")
    assert err.count("\n") == 1


def test_smoothing_audit_failure_is_exit_4(capsys):
    # A violent generator breaks the fixed-step agreement checks; the
    # report is still written and the exit code flags the failure.
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "100",
                                      "--seed", "3", "--amplitude", "1.0"])
    assert code == 4
    assert "smoothing audit failed" in err
    result = json.loads(out)["result"]
    assert not (result["checks"]["agreement_pass"]
                and result["checks"]["symplecticity_pass"])
    # no DOP853 pair passes: the map steps the last pair's 48 steps, and
    # that pair's gap, far above the tolerance, is its estimate
    step = result["step"]
    assert set(step) == {"h", "estimate", "tol"}
    assert step["h"] == "0.020833333333333332" and step["tol"] == "1e-08"
    assert float(step["estimate"]) > 1.0


def test_map_whose_pairs_fail_keeps_its_recorded_bytes(capsys):
    # The same generator at 50 points: no pilot pair passes, so its map
    # steps the last pair's 48 DOP853 steps, and the failed audit's
    # envelope, with that pair's gap as the estimate, is the recorded one
    # byte for byte.
    code, out, err = run_cli(capsys, ["smoothing-audit", "--amplitude", "1",
                                      "--seed", "3", "--points", "50"])
    assert code == 4 and err == "symcone: smoothing audit failed\n"
    golden = (Path(__file__).resolve().parent / "golden"
              / "smoothing_audit_amplitude1_seed3_points50.json")
    assert out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("amplitude", ["-1", "0"])
def test_nonpositive_amplitude_is_refused_by_name(capsys, amplitude):
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "1",
                                      "--amplitude", amplitude])
    assert code == 2 and out == ""
    assert err == f"symcone: amplitude must be positive, got {float(amplitude)}\n"


def test_infinite_amplitude_is_refused_by_name(capsys):
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "1",
                                      "--amplitude", "inf"])
    assert code == 2 and out == ""
    assert err == "symcone: amplitude must be finite, got inf\n"


@pytest.mark.parametrize("argv", [
    ["smoothing-audit", "--points", "3", "--eps", "inf"],
    ["squeeze", "--candidates", "1", "--samples", "50", "--eps", "inf"],
], ids=["smoothing-audit", "squeeze"])
def test_infinite_eps_is_refused_by_name(capsys, argv):
    # refused before any pilot row is built from it, so numpy warns of
    # nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == "symcone: eps must be finite, got inf\n"


def test_smoothing_audit_overflowing_bounds_is_exit_2(capsys):
    # At amplitude 30 the rate bounds are finite but 4M/m overflows: the
    # map is refused with one stderr line, and numpy warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "10",
                                          "--amplitude", "30"])
    assert code == 2 and out == ""
    assert err.startswith("symcone: conformal bounds must be finite and "
                          "positive, got M=")
    assert err.endswith(", K_factor=inf\n") and err.count("\n") == 1


def test_smoothing_audit_stencil_lost_to_rounding_is_exit_2(capsys):
    # At amplitude 5 the audited rows sit out to |z| near 1e33, where the
    # stencil's step is below one ulp: the moved rows equal their base
    # rows, and a defect read from them would be the stencil's own.
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "5",
                                      "--amplitude", "5"])
    assert code == 2 and out == ""
    head = ("symcone: symplecticity stencil step FD_STEP = 0.0003 is lost to "
            "rounding at audited |z| up to ")
    assert err.startswith(head) and err.count("\n") == 1
    assert float(err[len(head):]) > 1e30


@pytest.mark.parametrize("amplitude", ["3", "5", "8"])
def test_lost_stencil_is_refused_before_the_map_integrates(capsys, monkeypatch,
                                                          amplitude):
    # The audit places its rows by the certificate alone, so a stencil
    # lost to rounding is refused before the map's step choice runs the
    # loop at all.
    calls = []
    loop = smoothing._lockstep_rk

    def counted(*args, **kwargs):
        calls.append(args[3])
        return loop(*args, **kwargs)

    monkeypatch.setattr(smoothing, "_lockstep_rk", counted)
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "10",
                                      "--amplitude", amplitude])
    assert code == 2 and out == ""
    assert err.startswith("symcone: symplecticity stencil step FD_STEP = 0.0003 "
                          "is lost to rounding at audited |z| up to ")
    assert calls == []


def test_metric_scaling_headline(capsys):
    code, out, err = run_cli(capsys, ["metric", "--family", "scaling",
                                      "--s", "2.0", "--grid", "2000",
                                      "--pool", "2"])
    assert code == 0 and err == ""
    res = json.loads(out)["result"]
    assert res["antisymmetry_ok"] is True
    d = res["headline"]["distance"]
    assert float(d["lo"]) == pytest.approx(math.log(2.0), rel=1e-14)
    assert float(d["hi"]) == pytest.approx(math.log(2.0), rel=1e-14)
    assert all(v["ok"] for v in res["dw_bound"].values())
    assert [sorted(c) for c in res["classes"]] == [["f"], ["2f"]]


def test_metric_headline_names_a_scale_past_six_digits(capsys):
    code, out, err = run_cli(capsys, ["metric", "--s", "1.0000001",
                                      "--grid", "100", "--pool", "0"])
    assert code == 0 and err == ""
    res = json.loads(out)["result"]
    assert res["headline"]["pair"] == ["f", "1.0000001f"]
    assert [sorted(c) for c in res["classes"]] == [["f"], ["1.0000001f"]]


def test_metric_dw_bound_with_separated_capacities(capsys):
    # at s = 64 the capacity enclosures of f and 64f do not overlap, so
    # the log-gap bound is positive and still under d_hi = log 64
    code, out, err = run_cli(capsys, ["metric", "--family", "scaling",
                                      "--s", "64", "--grid", "500",
                                      "--pool", "1"])
    assert code == 0 and err == ""
    entry = json.loads(out)["result"]["dw_bound"]["64f|f"]
    assert entry == {"d_hi": "4.1588830833596715",
                     "rhs": "0.34657359027997281", "ok": True}


def test_metric_audit_failure_is_exit_4(capsys, monkeypatch):
    dw_bound_check = cli.dw_bound_check

    def failing(*args):
        return dict(dw_bound_check(*args), ok=False)

    monkeypatch.setattr(cli, "dw_bound_check", failing)
    code, out, err = run_cli(capsys, ["metric", "--family", "scaling",
                                      "--grid", "500", "--pool", "1"])
    assert code == 4 and err == "symcone: metric audit failed\n"
    res = json.loads(out)["result"]  # the envelope is still written
    assert res["dw_bound"]["2f|f"]["ok"] is False


def test_metric_antisymmetry_failure_is_exit_4(capsys, monkeypatch):
    # witnesses of 0.5 both ways between f and 2f put each class strictly
    # below the other, which no pair of cones can be
    monkeypatch.setattr(growth, "_closed_hi_matrix",
                        lambda hi: {(i, j): 1.0 if i == j else 0.5
                                    for i, j in hi})
    code, out, err = run_cli(capsys, ["metric", "--family", "scaling",
                                      "--grid", "200", "--pool", "0"])
    assert code == 4 and err == "symcone: metric audit failed\n"
    res = json.loads(out)["result"]
    assert res["antisymmetry_ok"] is False
    assert all(v["ok"] for v in res["dw_bound"].values())


@pytest.mark.parametrize("family", ["scaling", "random"])
def test_metric_family_takes_the_split(capsys, family):
    code, out, err = run_cli(capsys, ["metric", "--family", family,
                                      "--grid", "500", "--pool", "1",
                                      "--n", "2", "--k", "7"])
    assert code == 2 and out == ""
    assert err == "symcone: k = 7 outside 1..2\n"


@pytest.mark.parametrize("argv", [
    ["capacity", "--expr", "1 * bump(rho; 1, 3)", "--k", "2"],
    ["metric", "--k", "2", "--grid", "100", "--pool", "0"]],
    ids=["capacity-expr", "metric"])
def test_no_capacity_numbers_at_full_index(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("symcone: capacity is undefined for k = 2 >= n = 2")


def test_metric_bounds_each_pair_once(monkeypatch, capsys):
    init = ConeFamily.__init__
    sup_ratio, pulled_back = ConeFamily.sup_ratio, Conjugator.pulled_back
    calls, pullbacks, evals, fams, eval_fns = [], [], [], [], {}

    def counting_evals(self, *args, **kw):
        # the elements' own audits are done by now; count what follows
        init(self, *args, **kw)
        fams.append(self)
        for eid, el in self.elements.items():
            eval_fns[eid] = el.H.eval_fn

            def count(th, eval_fn=el.H.eval_fn):
                evals.append(th.shape[0])
                return eval_fn(th)
            el.H.eval_fn = count

    def counting(self, fid, hid, conj):
        calls.append((fid, hid, conj.cid))
        return sup_ratio(self, fid, hid, conj)

    def counting_pullbacks(self, grid):
        pullbacks.append(self.cid)
        return pulled_back(self, grid)

    monkeypatch.setattr(ConeFamily, "__init__", counting_evals)
    monkeypatch.setattr(ConeFamily, "sup_ratio", counting)
    monkeypatch.setattr(Conjugator, "pulled_back", counting_pullbacks)
    code, out, err = run_cli(capsys, ["metric", "--family", "random",
                                      "--count", "3", "--pool", "1",
                                      "--grid", "500"])
    assert code == 0 and err == ""
    # 3 x 3 ordered pairs against the identity and one flow conjugator,
    # which share one pullback of each element through each conjugator
    assert len(calls) == 18 and len(set(calls)) == 18
    assert sorted(pullbacks) == ["flow-0"] * 3 + ["identity"] * 3
    # one evaluation per (element, conjugator): the denominators read the
    # identity's entries, which are the elements' values on the grid
    assert evals == [500] * 6
    (fam,) = fams
    for eid, eval_fn in eval_fns.items():
        assert np.array_equal(fam._pulled[(eid, fam.pool[0])],
                              eval_fn(fam.grid))
    res = json.loads(out)["result"]
    dists = res["distances"]
    assert len(res["dw_bound"]) == 3
    for key, entry in res["dw_bound"].items():
        i, j = key.split("|")
        d = dists.get(f"{i}|{j}") or dists[f"{j}|{i}"]
        assert entry["d_hi"] == d["hi"]


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc"
                    or importlib.util.find_spec("resource") is None,
                    reason="counts glibc's minor page faults")
def test_repeated_spectrum_job_takes_no_fresh_pages():
    # The label scan traces its contours CONTOUR_BLOCK levels at a time, so
    # every temporary stays below 64 KiB, under glibc's mmap threshold and
    # the size of free that can trim the heap, and a repeated job reuses
    # the heap's pages; tracing all 50 levels at once took about 550 minor
    # faults a job.
    proc = run_python(["-c", (
        "import contextlib, io, resource\n"
        "from symcone import cli\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['spectrum', '--C', '5', '--labels', '50']) == 0\n"
        "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(faults)\n")])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


def test_spectrum_never_confirms_on_an_empty_scan(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["spectrum", "--labels", "0"])
    assert code == 2 and "scan_labels" in err
    out_path = tmp_path / "partial.json"
    code, _, _ = run_cli(capsys, ["spectrum", "--labels", "40", "--budget", "0",
                                  "--out", str(out_path)])
    assert code == 3
    res = json.loads(out_path.read_text(encoding="utf-8"))["result"]
    assert res["labels_scanned"] == 0 and res["partial"] is True
    assert res["scan_confirms_bound"] is False


def test_no_subcommand_loads_scipy():
    # scipy is a test dependency only: every subcommand, run at a tiny size
    # in a fresh interpreter, leaves no scipy module loaded (the sandwich
    # and capacity runs estimate metadata, so they draw the Beta law), and
    # no file of the package names it
    runs = [["spectrum", "--labels", "20"],
            ["sandwich", "--expr", "1 * bump(rho; 1, 3)", "--samples", "1000"],
            ["capacity", "--expr", "1 * bump(rho; 1, 3)"],
            ["squeeze", "--candidates", "1", "--samples", "100"],
            ["metric", "--grid", "100", "--pool", "1"],
            ["smoothing-audit", "--points", "1"]]
    assert sorted(argv[0] for argv in runs) == sorted(cli._COMMANDS)
    proc = run_python(["-c", (
        "import contextlib, io, sys\n"
        "from symcone import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, [m for m in sys.modules\n"
        "                          if m == 'scipy' or m.startswith('scipy.')])\n")])
    assert proc.stdout.splitlines() == [f"{argv[0]} 0 []" for argv in runs], proc.stderr
    src = Path(symcone.__file__).resolve().parent
    for path in src.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            assert "scipy" not in path.read_text(encoding="utf-8"), path


def test_exact_capacity_never_loads_numpy_random():
    # numpy loads numpy.random on first use; an exact hyperboloid capacity
    # draws nothing, so its import and run leave it unloaded
    proc = run_python(["-c", (
        "import contextlib, io, sys\n"
        "from symcone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['capacity', '--hyperboloid', '--a', '2', '--b', '3'])\n"
        "print(code, 'numpy.random' in sys.modules)\n")])
    assert proc.stdout == "0 False\n", proc.stderr


def test_capacity_seed_reaches_the_estimated_metadata(capsys, tmp_path):
    # capacity --expr estimates the support metadata by seeded sampling, so
    # its --seed moves the enclosure; the default seed keeps the old bytes.
    expr = "1 * bump(rho; 1, 3) + 0.3 * bump(rho; 0.5, 2) * mono(x1^2)"
    runs = {seed: run_cli(capsys, ["capacity", "--expr", expr, "--seed", seed])
            for seed in ("0", "5")}
    assert runs["0"][0] == runs["5"][0] == 0
    assert run_cli(capsys, ["capacity", "--expr", expr]) == runs["0"]
    results = {seed: json.loads(out)["result"] for seed, (_, out, _) in runs.items()}
    assert results["0"]["lo"] != results["5"]["lo"]
    for seed in (0, 5):
        H = symcone.ExpressionHamiltonian(expr, n=2, k=1, meta_seed=seed)
        w = symcone.capacity_of_hamiltonian(H)
        assert results[str(seed)]["lo"] == f"{w.lo:.17g}"
    # nothing random runs in spectrum, so it takes no seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 0}', encoding="utf-8")
    code, _, err = run_cli(capsys, ["spectrum", "--labels", "5", "--config", str(cfg)])
    assert code == 2 and "unknown config keys: seed" in err


def test_main_keeps_no_state_between_calls(capsys):
    # The parser is built once per process; each call must still resolve
    # only its own flags, exactly as a fresh interpreter does.
    runs = [["capacity", "--hyperboloid", "--a", "2"],
            ["metric", "--family", "scaling", "--s", "3", "--grid", "2000",
             "--pool", "2"],
            ["capacity", "--hyperboloid"]]
    for argv in runs:
        fresh = run_python(["-m", "symcone.cli", *argv])
        assert run_cli(capsys, argv) == (fresh.returncode, fresh.stdout,
                                         fresh.stderr)
    assert json.loads(fresh.stdout)["config"]["a"] == "1"


def test_readme_library_example_runs(capsys):
    """The README's `## Library example` block runs and prints the
    enclosure [pi/8, 4 pi] it announces."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lo, hi = map(float, capsys.readouterr().out.split())
    assert lo == pytest.approx(math.pi / 8.0, rel=1e-12)
    assert hi == pytest.approx(4.0 * math.pi, rel=1e-12)


# Every subcommand at small sizes off the default split (n, k) = (2, 1)
N3_RUNS = {
    "spectrum": ["spectrum", "--labels", "50"],
    "sandwich": ["sandwich", "--expr", "1 * bump(rho; 1, 3)",
                 "--samples", "20000"],
    "capacity-expr": ["capacity", "--expr", "1 * bump(rho; 1, 3)"],
    "capacity-hyperboloid": ["capacity", "--hyperboloid"],
    "metric-scaling": ["metric", "--grid", "1000", "--pool", "1"],
    "metric-random": ["metric", "--family", "random", "--grid", "1000",
                      "--pool", "1"],
    "smoothing-audit": ["smoothing-audit", "--points", "20"],
    "squeeze": ["squeeze", "--candidates", "1", "--samples", "500"],
}


def _n3_case(k, name):
    # the candidate's sampled conformal factor escapes its rate envelope
    marks = (pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
             if (k, name) == (1, "squeeze") else ())
    return pytest.param(k, name, id=f"3-{k}-{name}", marks=marks)


@pytest.mark.parametrize("k, name", [_n3_case(k, name) for k in (1, 2)
                                     for name in N3_RUNS])
def test_every_subcommand_runs_at_n_3(capsys, k, name):
    code, out, err = run_cli(capsys, N3_RUNS[name] + ["--n", "3", "--k", str(k)])
    assert (code, err) == (0, "")
    if name == "sandwich":
        assert json.loads(out)["result"]["audit"]["samples_inner"] > 0
