"""Smoke pass over the CLI examples in the README, outside the timed runs.

    python3 perfbench/smoke.py

Each `symcone ...` line of the README's "Command line" block runs once in
process, shrunk to a tiny size by flags appended after the example's own
(argparse keeps the last value), and its exit code is recorded.  Exits 1
if an example fails that is not a listed open defect.
"""
import shlex
import sys
import tempfile

import run

# appended to each example so the pass takes seconds, not minutes
TINY = {
    "spectrum": ["--labels", "10"],
    "sandwich": ["--samples", "2000"],
    "capacity": [],
    "squeeze": ["--candidates", "1", "--samples", "500"],
    "metric": ["--grid", "500", "--pool", "1"],
    "smoothing-audit": ["--points", "10"],
}
# example -> (exit code it gives today, why); not fixed by the benchmark
OPEN_DEFECTS = {
    'symcone capacity --expr "1 * bump(rho; 1, 3)" --M 1 --m 0.5 --rho0 0.1 --rho1 3':
        (2, "capacity declares no --M/--m/--rho0/--rho1 flags"),
}


def readme_examples(text: str):
    """`symcone ...` lines of the README's Command line section."""
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [line.strip() for line in section.splitlines()
            if line.strip().startswith("symcone ")]


def main() -> int:
    cli = run.load_cli()
    examples = readme_examples((run.ROOT / "README.md").read_text(encoding="utf-8"))
    if not examples:
        sys.exit("perfbench: no CLI examples found in README.md")
    bad = 0
    with tempfile.TemporaryDirectory(dir=run.ROOT / "perfbench") as tmp:
        for line in examples:
            argv = shlex.split(line)[1:]
            argv = [f"{tmp}/{a}" if prev == "--csv" else a
                    for prev, a in zip([None] + argv, argv)]
            code, _, err, seconds = run.invoke(cli, argv + TINY[argv[0]])
            expected, why = OPEN_DEFECTS.get(line, (0, ""))
            if code == 0 and expected != 0:
                status = "FIXED (drop it from OPEN_DEFECTS)"
            elif code == expected:
                status = "ok" if code == 0 else f"open defect: {why}"
            else:
                status = f"FAILED: {err.strip()[-200:]}"
                bad += 1
            print(f"exit {code} {seconds:7.2f}s  {line}\n    {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
