"""Batch command-line front-end.

Subcommands: spectrum | sandwich | capacity | squeeze | metric |
smoothing-audit.  Every run resolves to a flat parameter map (defaults,
then config file, then explicit flags), which is embedded verbatim in
the output together with the package version; identical resolved
configs produce byte-identical output.

Exit codes: 0 success, 2 invalid parameters or parse failure, 3 scan
budget exhausted (partial result still written), 4 audit failure.
"""
import argparse
import functools
import sys
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import __version__
from .capacity import (candidate_pool, capacity_hyperboloid,
                       capacity_of_hamiltonian, nonsqueezing_verdict)
from .contact import SupportMeta
from .domains import (Hyperboloid, IntegrableDomain, SmoothedWell,
                      containment_audit, sandwich_solve)
from .errors import AuditError, DomainError, ParseError
from .exprs import ExpressionHamiltonian, random_hamiltonian
from .growth import (dw_bound_check, equivalence_and_order, random_family,
                     scale_id, scaling_family)
from .jsonio import dumps_json, fmt_float, load_config, write_csv
from .orbits import characteristic_spectrum, clears_bound
from . import sampling
from .smoothing import (AUDIT_TOL, IDENTITY_TOL, SmoothedSymplectization,
                        smoothing_certificate, symplecticity_defect_of_images,
                        symplecticity_stencil)


class _Param(NamedTuple):
    """One parameter of a subcommand: its flag, config key and default."""

    name: str
    type: type
    default: object
    choices: Optional[Tuple[str, ...]] = None


_SPLIT = (_Param("n", int, 2), _Param("k", int, 1))
_AB = (_Param("a", float, 1.0), _Param("b", float, 1.0))
_EXPR = (_Param("expr", str, None),)
_META = (_Param("M", float, None), _Param("m", float, None),
         _Param("rho0", float, None), _Param("rho1", float, None))
_SEED = (_Param("seed", int, 0),)

# JSON types a config value may have for each parameter type
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), bool: ((bool,), "true or false")}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symcone",
        description="deterministic batch computations on cone geometry")
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, (text, params, _) in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=text)
        sp.add_argument("--config", help="JSON config file (same keys as flags)")
        sp.add_argument("--out", help="output path (default: stdout)")
        for par in params:
            if par.type is bool:
                sp.add_argument(f"--{par.name}", action="store_true", default=None)
            else:
                sp.add_argument(f"--{par.name}", type=par.type,
                                choices=par.choices)
    return p


def _checked(par: _Param, value):
    """A config-file value as the parameter's type (a JSON integer becomes
    a float for a float parameter); any other JSON type, a value outside
    the choices, or null where the default is not null is a ParseError."""
    if value is None and par.default is None:
        return None
    types, what = _JSON_TYPES[par.type]
    if type(value) not in types:
        raise ParseError(f"config value of {par.name} must be {what}, "
                         f"got {value!r}")
    if par.choices and value not in par.choices:
        raise ParseError(f"config value of {par.name} must be one of "
                         f"{', '.join(par.choices)}, got {value!r}")
    try:
        return par.type(value)
    except OverflowError:
        raise ParseError(f"config value of {par.name} is out of range") from None


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then explicit flags.  Config values
    are type-checked before unknown config keys are rejected."""
    table = {par.name: par for par in _COMMANDS[args.command][1]}
    cfg = load_config(args.config) if args.config else {}
    params = {name: par.default for name, par in table.items()}
    params.update((key, _checked(table[key], value))
                  for key, value in cfg.items() if key in table)
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    params.update((name, getattr(args, name)) for name in table
                  if getattr(args, name) is not None)
    params.update(command=args.command, out=args.out)
    return params


def _emit(text: str, path: Optional[str]):
    """Write text to path, or to stdout without one; an unwritable path is
    an invalid parameter."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from None


def _spectrum_csv(spec, params: dict) -> str:
    import io

    rows = []
    for i, act in enumerate(spec.group_i, start=1):
        rows.append(("i", str(i), act, "exact"))
    for e, floor in zip(spec.scan_energies.tolist(), spec.scan_floors.tolist()):
        flag = "ok" if clears_bound(floor, spec.group_ii_min_bound) else "below"
        rows.append(("ii", fmt_float(e), floor, flag))
    buf = io.StringIO()
    write_csv(buf, ("group", "index_or_label", "action", "bound_flag"), rows,
              preamble=[f"version: {__version__}",
                        "config: " + " ".join(
                            f"{k}={params[k]}" for k in sorted(params))])
    return buf.getvalue()


def cmd_spectrum(params: dict):
    eps = params["eps"] if params["eps"] is not None else params["C"] / 12.0
    D = IntegrableDomain(n=params["n"], k=params["k"], a=params["a"],
                         b=params["b"], well=SmoothedWell(params["C"], eps))
    labels, budget = params["labels"], params["budget"]
    spec = characteristic_spectrum(D, params["top"], scan_labels=labels,
                                   budget=budget)
    failure = None
    if spec.partial:  # only a budget below the label count stops the scan
        failure = (3, f"label scan budget {budget} exceeded at {budget}/{labels}")
    if params["csv"]:
        _emit(_spectrum_csv(spec, params), params["csv"])
    keys = ("group_i", "group_ii_min_bound", "window_top", "scan_min_floor",
            "labels_scanned", "scan_confirms_bound", "partial")
    return {key: getattr(spec, key) for key in keys}, failure


def _hamiltonian_from_params(params: dict, meta_seed: int = 0):
    if not params.get("expr"):
        raise ParseError("an --expr Hamiltonian expression is required")
    given = [params.get(key) for key in ("M", "m", "rho0", "rho1")]
    meta = None
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise ParseError("support metadata requires all of M, m, rho0, rho1")
        meta = SupportMeta(M=params["M"], m=params["m"],
                           rho0=params["rho0"], rho1=params["rho1"])
    return ExpressionHamiltonian(params["expr"], n=params["n"], k=params["k"],
                                 meta=meta, meta_seed=meta_seed)


def cmd_sandwich(params: dict):
    H = _hamiltonian_from_params(params)
    cert = sandwich_solve(H)
    if params["M"] is not None:  # supplied metadata is a claim to check
        H.audit(seed=params["seed"])
    report = containment_audit(H, cert, samples=params["samples"],
                               seed=params["seed"])
    result = {
        "inner": {"a": cert.inner.a, "b": cert.inner.b},
        "outer": {"a": cert.outer.a, "b": cert.outer.b},
        "provenance": cert.provenance,
        "audit": {"samples_inner": report.samples_inner,
                  "samples_outer": report.samples_outer,
                  "violations": report.violations,
                  "box_halfwidth": report.box_halfwidth},
    }
    if report.violations:
        return result, (4, f"containment audit failed with "
                           f"{report.violations} violations")
    return result, None


def cmd_capacity(params: dict):
    if params["hyperboloid"]:
        V = Hyperboloid(n=params["n"], k=params["k"], a=params["a"],
                        b=params["b"])
        w = capacity_hyperboloid(V)
    elif params.get("expr"):
        w = capacity_of_hamiltonian(
            _hamiltonian_from_params(params, meta_seed=params["seed"]))
    else:
        raise ParseError("need --hyperboloid or --expr")
    return {"lo": w.lo, "hi": w.hi, "exact": w.exact}, None


def cmd_squeeze(params: dict):
    V = Hyperboloid(n=params["n"], k=params["k"], a=params["a"], b=params["b"])
    pool = candidate_pool(params["n"], params["k"], params["candidates"],
                          seed=params["seed"], eps=params["eps"])
    report = nonsqueezing_verdict(V, params["s"], pool,
                                  samples=params["samples"],
                                  seed=params["seed"])
    result = {
        "domain": {"n": V.n, "k": V.k, "a": V.a, "b": V.b},
        "s": params["s"],
        "theoretical": report.theoretical,
        "verdict": report.verdict,
        "candidates": [
            {"id": c.cid, "escapes": c.escapes,
             "witness_point": None if c.witness_point is None
             else list(c.witness_point),
             "displacement": c.displacement}
            for c in report.candidates
        ],
    }
    # a CONTRADICTION verdict is its own report: exit 4, no stderr line
    return result, (4, None) if report.verdict == "CONTRADICTION" else None


def cmd_metric(params: dict):
    kw = dict(seed=params["seed"], grid_points=params["grid"],
              pool_size=params["pool"])
    if params["family"] == "scaling":
        s = params["s"]
        fam = scaling_family(scales=(1.0, s), n=params["n"], k=params["k"], **kw)
        pair = ("f", scale_id(s))
    else:
        fam = random_family(count=params["count"], n=params["n"],
                            k=params["k"], **kw)
        pair = None
    report = equivalence_and_order(fam)
    dists = report.distances  # keyed in family order; d(f,h) is symmetric
    dw = {f"{i}|{j}": dw_bound_check(fam, i, j,
                                     dists.get((i, j)) or dists[(j, i)])
          for i in fam.elements for j in fam.elements if i < j}
    result = {
        "classes": [list(c) for c in report.classes],
        "distances": {f"{i}|{j}": {"lo": d.lo, "hi": d.hi}
                      for (i, j), d in sorted(report.distances.items())},
        "edges": {fmt_float(eps): [list(e) for e in edges]
                  for eps, edges in report.edges.items()},
        "antisymmetry_ok": report.antisymmetry_ok,
        "dw_bound": dw,
    }
    if pair is not None:
        result["headline"] = {"pair": list(pair),
                              "distance": result["distances"]["|".join(pair)]}
    if not report.antisymmetry_ok or not all(v["ok"] for v in dw.values()):
        return result, (4, "metric audit failed")
    return result, None


def cmd_smoothing_audit(params: dict):
    n, k, eps = params["n"], params["k"], params["eps"]
    pts = params["points"]
    if pts < 1:
        raise DomainError(f"need at least 1 audited point, got {pts}")
    seed = params["seed"]
    gen = random_hamiltonian(n, k, seed=seed, amplitude=params["amplitude"])
    # rows sit by the certificate alone: a lost stencil is refused unstepped
    cert = smoothing_certificate(gen, eps)

    rng = sampling.rng(seed + 1)
    dirs = sampling.sphere_points(n, pts, seed + 2)
    r_in = eps * rng.uniform(0.05, 0.999, size=pts)
    zs_in = np.sqrt(r_in)[:, None] * dirs
    r_out = cert.K_factor * eps * rng.uniform(1.001, 4.0, size=pts)
    zs_out = np.sqrt(r_out)[:, None] * dirs
    r_all = np.concatenate([
        eps * rng.uniform(0.05, 0.999, size=34),
        eps * rng.uniform(1.001, cert.K_factor, size=33),
        cert.K_factor * eps * rng.uniform(1.001, 4.0, size=33),
    ])
    zs_all = np.sqrt(r_all)[:, None] * sampling.sphere_points(n, 100, seed + 3)
    stencil = symplecticity_stencil(zs_all)
    sm = SmoothedSymplectization(gen, cert)

    # One integration serves all three checks and the direct lift: the
    # map's step is chosen at construction, not from the rows, so each
    # block's images are bitwise those of its own call, for one call's
    # fixed overhead.
    images, direct = sm.map_and_lift(
        np.concatenate([zs_in, zs_out, stencil]), zs_out)
    moved = np.linalg.norm(images[:pts] - zs_in, axis=1)
    identity_max = float(np.max(moved))
    agree_max = float(np.max(np.linalg.norm(images[pts:2 * pts] - direct, axis=1)))
    defect = float(np.max(symplecticity_defect_of_images(images[2 * pts:])))

    checks = {
        "identity_ball_max_move": identity_max,
        "identity_ball_pass": bool(identity_max < IDENTITY_TOL),
        "agreement_max_diff": agree_max,
        "agreement_pass": bool(agree_max < AUDIT_TOL),
        "symplecticity_defect": defect,
        "symplecticity_pass": bool(defect < AUDIT_TOL),
    }
    result = {"M": cert.M, "m": cert.m, "K_factor": cert.K_factor,
              "eps": eps, "step": sm.step_choice, "checks": checks}
    if not all(v for key, v in checks.items() if key.endswith("_pass")):
        return result, (4, "smoothing audit failed")
    return result, None


# subcommand -> (help, parameters, runner): the one table of subcommands,
# and the one source of flags, defaults, known config keys and config
# value types.  A runner returns (result, failure), where failure is None
# or (exit code, stderr message or None).
_COMMANDS = {
    "spectrum": ("closed-characteristic actions", _SPLIT + _AB + (
        _Param("C", float, 3.0), _Param("top", float, 10.0),
        _Param("eps", float, None), _Param("labels", int, 1000),
        _Param("budget", int, None), _Param("csv", str, None)), cmd_spectrum),
    "sandwich": ("hyperboloid sandwich certificate", _EXPR + _SPLIT + _META
                 + (_Param("samples", int, 100_000),) + _SEED, cmd_sandwich),
    "capacity": ("capacity value or enclosure",
                 (_Param("hyperboloid", bool, False),) + _EXPR + _SPLIT + _AB
                 + _SEED, cmd_capacity),
    "squeeze": ("non-squeezing sweep", _SPLIT + _AB + (
        _Param("s", float, 1.5), _Param("candidates", int, 5),
        _Param("samples", int, 10_000), _Param("eps", float, 0.05)) + _SEED,
        cmd_squeeze),
    "metric": ("pseudo-metric on a family", (
        _Param("family", str, "scaling", ("scaling", "random")),
        _Param("s", float, 2.0), _Param("count", int, 5)) + _SPLIT + (
        _Param("grid", int, 10_000), _Param("pool", int, 8)) + _SEED,
        cmd_metric),
    "smoothing-audit": ("smoothed symplectization checks", _SPLIT + (
        _Param("eps", float, 0.05), _Param("points", int, 1000),
        _Param("amplitude", float, 0.1)) + _SEED, cmd_smoothing_audit),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params = _resolve(args)
        result, failure = _COMMANDS[args.command][2](params)
        _emit(dumps_json({"config": params, "version": __version__,
                          "result": result}), args.out)
    except (ParseError, DomainError) as exc:
        failure = (2, str(exc))
    except AuditError as exc:
        failure = (4, str(exc))
    if failure is None:
        return 0
    code, message = failure
    if message:
        print(f"symcone: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
