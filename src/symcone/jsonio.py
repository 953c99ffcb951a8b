"""Deterministic serialization: canonical JSON with 17-significant-digit
decimal strings for floats, CSV tables, and config-file handling.

Floats are emitted as strings so byte-identical reproduction across
platforms only depends on the (well-specified) shortest-digits decimal
conversion, never on locale or repr drift; 17 significant digits make
the round-trip bit-exact.
"""
import dataclasses
import json
import math
from typing import IO, Mapping, Optional, Sequence

import numpy as np

from .errors import ParseError


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def parse_float(s) -> float:
    return float(s)


def to_jsonable(obj):
    """Recursively convert to JSON-ready values (floats become strings)."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_csv(out: IO[str], header: Sequence[str], rows: Sequence[Sequence],
              preamble: Optional[Sequence[str]] = None):
    """Plain deterministic CSV; values are formatted with fmt_float when
    they are floats, otherwise str()."""
    for line in preamble or ():
        out.write(f"# {line}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = [fmt_float(v) if isinstance(v, (float, np.floating))
                 else str(v) for v in row]
        out.write(",".join(cells) + "\n")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ParseError("config file must hold a JSON object")
    return cfg


# --------------------------------------------------------------------------
# domain serialization


def domain_to_dict(V) -> dict:
    from .domains import Hyperboloid, IntegrableDomain, StarDomain
    from .exprs import ExpressionHamiltonian

    if isinstance(V, Hyperboloid):
        return {"type": "hyperboloid", "n": V.n, "k": V.k,
                "a": fmt_float(V.a), "b": fmt_float(V.b)}
    if isinstance(V, StarDomain):
        H = V.H
        if not isinstance(H, ExpressionHamiltonian):
            raise ParseError("only expression-backed star domains serialize")
        m = H.meta
        return {"type": "star", "n": H.n, "k": H.k, "expr": H.text,
                "meta": {"M": fmt_float(m.M), "m": fmt_float(m.m),
                         "rho0": fmt_float(m.rho0), "rho1": fmt_float(m.rho1)}}
    if isinstance(V, IntegrableDomain):
        return {"type": "integrable", "n": V.n, "k": V.k,
                "a": fmt_float(V.a), "b": fmt_float(V.b),
                "C": fmt_float(V.well.C), "eps": fmt_float(V.well.eps),
                "delta": fmt_float(V.well.delta)}
    raise ParseError(f"cannot serialize domain {type(V).__name__}")


def domain_from_dict(d: Mapping):
    from .contact import SupportMeta
    from .domains import Hyperboloid, IntegrableDomain, SmoothedWell, StarDomain
    from .exprs import ExpressionHamiltonian

    kind = d.get("type")
    if kind == "hyperboloid":
        return Hyperboloid(n=int(d["n"]), k=int(d["k"]),
                           a=parse_float(d["a"]), b=parse_float(d["b"]))
    if kind == "star":
        meta = d.get("meta")
        sm = None
        if meta:
            sm = SupportMeta(M=parse_float(meta["M"]), m=parse_float(meta["m"]),
                             rho0=parse_float(meta["rho0"]),
                             rho1=parse_float(meta["rho1"]))
        H = ExpressionHamiltonian(d["expr"], n=int(d["n"]), k=int(d["k"]),
                                  meta=sm)
        return StarDomain(H)
    if kind == "integrable":
        well = SmoothedWell(C=parse_float(d["C"]), eps=parse_float(d["eps"]),
                            delta=parse_float(d["delta"]))
        return IntegrableDomain(n=int(d["n"]), k=int(d["k"]),
                                a=parse_float(d["a"]), b=parse_float(d["b"]),
                                well=well)
    raise ParseError(f"unknown domain type tag {kind!r}")
