import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symcone
from symcone import sampling
from symcone.cli import _build_parser, main
from symcone.growth import ConeFamily
from symcone.smoothing import (SmoothedSymplectization, symplecticity_defect,
                               symplectize_ambient)


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


def test_invalid_geometry_is_exit_2(capsys):
    code, _, err = run_cli(capsys, ["capacity", "--hyperboloid", "--a", "-1"])
    assert code == 2 and "symcone:" in err
    code, _, err = run_cli(capsys, ["capacity", "--hyperboloid",
                                    "--k", "2", "--n", "2"])
    assert code == 2  # no capacity at full index


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


@pytest.mark.parametrize("name, argv", [
    ("capacity_hyperboloid_a2_b3.json",
     ["capacity", "--hyperboloid", "--a", "2", "--b", "3"]),
    ("sandwich_readme_samples20000.json",
     ["sandwich", "--expr", "1 * bump(rho; 1, 3)", "--M", "1", "--m", "0.5",
      "--rho0", "0.1", "--rho1", "3", "--samples", "20000"]),
])
def test_envelope_matches_golden_bytes(capsys, name, argv):
    # Both runs use exact arithmetic and seeded PCG64 draws only, so the
    # recorded envelopes hold on every platform.
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


def test_spectrum_budget_writes_partial_and_exits_3(tmp_path, capsys):
    out_path = tmp_path / "partial.json"
    csv_path = tmp_path / "partial.csv"
    code, _, err = run_cli(capsys, ["spectrum", "--labels", "40",
                                    "--budget", "15", "--out", str(out_path),
                                    "--csv", str(csv_path)])
    assert code == 3
    assert "budget" in err
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["result"]["partial"] is True
    assert doc["result"]["labels_scanned"] == 15
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    assert sum(row.startswith("ii,") for row in rows) == 15


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
    # M = 0.01 understates the sup of 1, so the inner hyperboloid is too
    # large: the report is still written and the exit code flags it.
    code, out, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3)",
        "--M", "0.01", "--m", "0.5", "--rho0", "0.1", "--rho1", "3",
        "--samples", "20000"])
    violations = json.loads(out)["result"]["audit"]["violations"]
    assert code == 4 and violations > 0
    assert err == f"symcone: containment audit failed with {violations} violations\n"


def test_sandwich_rejects_nonpositive_floor(capsys):
    code, _, err = run_cli(capsys, [
        "sandwich", "--expr", "1 * bump(rho; 1, 3)",
        "--M", "1.0", "--m", "0.0", "--rho0", "0.1", "--rho1", "3.0"])
    assert code == 2 and "not in g+" in err


def test_bad_expression_is_exit_2(capsys):
    code, _, err = run_cli(capsys, ["capacity", "--expr", "bump(rho; 3, 1)"])
    assert code == 2 and "symcone:" in err


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


def test_squeeze_below_unit_scale_is_vacuous(capsys):
    code, out, _ = run_cli(capsys, ["squeeze", "--candidates", "1",
                                    "--samples", "200", "--s", "0.5"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "VACUOUS"


def test_smoothing_audit_passes(capsys, monkeypatch):
    maps = []
    original = SmoothedSymplectization.__call__

    def counted(self, *args, **kwargs):
        maps.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SmoothedSymplectization, "__call__", counted)
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "150",
                                      "--seed", "31"])
    assert code == 0 and err == ""
    checks = json.loads(out)["result"]["checks"]
    assert checks["identity_ball_pass"] is True
    assert checks["agreement_pass"] is True
    assert checks["symplecticity_pass"] is True
    # one integration of the smoothed map serves all three checks ...
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
            np.linalg.norm(sm(zs_out) - symplectize_ambient(sm.iso, zs_out), axis=1),
            symplecticity_defect(sm, zs_all)]
    got = [float(checks[key]) for key in ("identity_ball_max_move",
                                          "agreement_max_diff",
                                          "symplecticity_defect")]
    assert got == [float(np.max(w)) for w in want]


def test_smoothing_audit_failure_is_exit_4(capsys):
    # A violent generator breaks the fixed-step agreement checks; the
    # report is still written and the exit code flags the failure.
    code, out, err = run_cli(capsys, ["smoothing-audit", "--points", "100",
                                      "--seed", "3", "--amplitude", "1.0"])
    assert code == 4
    assert "smoothing audit failed" in err
    checks = json.loads(out)["result"]["checks"]
    assert not (checks["agreement_pass"] and checks["symplecticity_pass"])


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


def test_metric_bounds_each_pair_once(monkeypatch, capsys):
    sup_ratio = ConeFamily.sup_ratio
    calls = []

    def counting(self, fid, hid, conj):
        calls.append((fid, hid, conj.cid))
        return sup_ratio(self, fid, hid, conj)

    monkeypatch.setattr(ConeFamily, "sup_ratio", counting)
    code, out, err = run_cli(capsys, ["metric", "--family", "random",
                                      "--count", "3", "--pool", "1",
                                      "--grid", "500"])
    assert code == 0 and err == ""
    # 3 x 3 ordered pairs against the identity and one flow conjugator
    assert len(calls) == 18 and len(set(calls)) == 18
    res = json.loads(out)["result"]
    dists = res["distances"]
    assert len(res["dw_bound"]) == 3
    for key, entry in res["dw_bound"].items():
        i, j = key.split("|")
        d = dists.get(f"{i}|{j}") or dists[f"{j}|{i}"]
        assert entry["d_hi"] == d["hi"]


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


def test_capacity_run_loads_no_heavy_scipy_modules():
    # A fresh interpreter pays for every import; scipy.stats, optimize and
    # integrate are only loaded by the commands that use them.
    proc = run_python(["-c", (
        "import sys\n"
        "from symcone import cli\n"
        "code = cli.main(['capacity', '--hyperboloid', '--a', '1', '--b', '1'])\n"
        "heavy = ('scipy.stats', 'scipy.optimize', 'scipy.integrate')\n"
        "print(code, [m for m in heavy if m in sys.modules], file=sys.stderr)\n")])
    assert proc.stderr == "0 []\n"
    assert json.loads(proc.stdout)["result"]["exact"] is True


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
