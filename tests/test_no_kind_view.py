"""No module of the package but ``grammar`` reads ``.kind``.

``SymbolTable.kind`` is a list derived from ``level`` in O(n) on every
read, so a ``t.kind[s]`` in a query loop would be quadratic.  The other
modules test ``level[s] & 1`` instead: a symbol's kind is its level's
parity.
"""

import ast
from pathlib import Path

import rlslp

PACKAGE = Path(rlslp.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "grammar.py")


def test_modules_but_grammar_read_no_kind():
    assert {"cli.py", "index.py", "oracle.py", "ipm.py"} <= set(MODULES)
    found = sorted((name, node.lineno)
                   for name in MODULES
                   for node in ast.walk(ast.parse((PACKAGE / name).read_text(), name))
                   if isinstance(node, ast.Attribute) and node.attr == "kind")
    assert not found, "the O(n) kind view is read outside grammar: " + \
        ", ".join(f"{name}:{line}" for name, line in found)
