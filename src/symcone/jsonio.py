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

