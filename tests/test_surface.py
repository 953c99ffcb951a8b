"""Every public name of the package has a caller beyond the unit tests.

A name that `symcone/__init__.py` exports must be mentioned somewhere in
the other package modules or in the acceptance criteria.  Its own
`def` or `class` line and its entry in an `__all__` list do not count.
"""
import ast
import re
from pathlib import Path

import symcone

PACKAGE = Path(symcone.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Open item 1 of ROADMAP.md (linear conjugators for the random-family
# metric) builds on the two model fields; they stay exported until then.
EXEMPT = {"model_field_contracting", "model_field_expanding"}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _mentioned(path):
    text = path.read_text(encoding="utf-8")
    text = re.sub(r"__all__\s*=\s*\[[^]]*\]", "", text)
    text = re.sub(r"\b(?:def|class)\s+\w+", "", text)
    return set(re.findall(r"\w+", text))


def test_every_exported_name_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*(_mentioned(p) for p in sources + [ACCEPTANCE]))
    unused = sorted(_exported() - used - EXEMPT)
    assert unused == [], f"exported but reached only by unit tests: {unused}"
