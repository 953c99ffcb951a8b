"""Every public name of the package has a caller beyond the unit tests.

The guard reads code, not text.  A name counts as used when a package
module other than `symcone/__init__.py`, or the acceptance criteria,
reads it (an `ast.Name` in a load) or takes it as an attribute (an
`ast.Attribute`).  Strings, docstrings, comments, `def` and `class`
lines and `__all__` lists hold no such node, so they count for nothing.
"""
import ast
from pathlib import Path

import symcone

PACKAGE = Path(symcone.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# exported names that stay without a caller, and why (items of ROADMAP.md)
EXEMPT = {
    "model_field_contracting": "item 1 (linear conjugators for the "
                               "random-family metric) builds on it",
    "model_field_expanding": "item 1 (linear conjugators for the "
                             "random-family metric) builds on it",
    "label_action_floor": "perfbench/tracer.py wraps it by name, and the "
                          "traced benchmark run fails without it (items 7, 11)",
    "symplecticity_defect": "perfbench/tracer.py wraps it by name, and the "
                            "traced benchmark run fails without it (items 7, 11)",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _exported():
    return {alias.asname or alias.name for node in _tree(PACKAGE / "__init__.py").body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _reads():
    """(names read, attribute names taken) over the package modules other
    than `__init__.py` and the acceptance criteria."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    names, attrs = set(), set()
    for path in sources + [ACCEPTANCE]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_exported_name_has_a_caller():
    names, attrs = _reads()
    unused = sorted(_exported() - names - attrs - set(EXEMPT))
    assert unused == [], f"exported but reached only by unit tests: {unused}"


def test_every_public_method_is_taken_as_an_attribute():
    """A name-level tripwire: a public method of an exported class passes
    when any attribute of its name is taken, whatever the object.  A name
    that several classes share would pass on one class's caller, so a
    call trace, not this test, would show that each of them is reached."""
    exported = _exported()
    _, attrs = _reads()
    unused = sorted(
        f"{node.name}.{item.name}"
        for path in sorted(PACKAGE.glob("*.py")) for node in _tree(path).body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
        and item.name not in attrs)
    assert unused == [], f"public methods reached only by unit tests: {unused}"
