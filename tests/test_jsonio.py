import dataclasses
import io
import json
import math

import numpy as np
import pytest

from symcone import ParseError
from symcone.jsonio import (
    dumps_json,
    fmt_float,
    load_config,
    to_jsonable,
    write_csv,
)


def test_float_formatting_roundtrips_bit_exact():
    rng = np.random.default_rng(99)
    xs = np.concatenate([
        rng.standard_normal(300),
        10.0 ** rng.uniform(-300, 300, 300) * rng.choice([-1, 1], 300),
        [0.0, -0.0, 1.0, math.pi, 1e-308],
    ])
    for x in xs:
        s = fmt_float(float(x))
        assert isinstance(s, str)
        assert float(s) == float(x)


def test_float_formatting_specials():
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(-math.inf) == "-inf"
    assert fmt_float(math.nan) == "nan"
    assert math.isnan(float("nan"))


def test_jsonable_conversion_rules():
    @dataclasses.dataclass
    class Point:
        x: float
        tag: str

    obj = {"a": np.float64(0.5), "b": np.int32(3), "c": [True, None],
           "d": np.array([1.5, 2.5]), "e": Point(x=0.25, tag="p"),
           "f": (1, 2)}
    out = to_jsonable(obj)
    assert out["a"] == "0.5" and out["b"] == 3
    assert out["c"] == [True, None]
    assert out["d"] == ["1.5", "2.5"]
    assert out["e"] == {"x": "0.25", "tag": "p"}
    assert out["f"] == [1, 2]
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_dumps_json_is_canonical():
    a = dumps_json({"z": 1.0, "a": {"q": 2.5, "b": 3}})
    b = dumps_json({"a": {"b": 3, "q": 2.5}, "z": 1.0})
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["z"] == "1"  # floats travel as strings
    # no bare floats anywhere in the document
    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
    walk(parsed)


def test_csv_layout():
    buf = io.StringIO()
    write_csv(buf, ["group", "value"], [["a", 0.5], ["b", 2]],
              preamble=["made deterministically"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# made deterministically"
    assert lines[1] == "group,value"
    assert lines[2] == "a,0.5"
    assert lines[3] == "b,2"


def test_config_loading_and_merge(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"alpha": 2.0}', encoding="utf-8")
    assert load_config(str(p)) == {"alpha": 2.0}
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(str(bad))
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "missing.json"))
