"""The query and builder modules read no ``.kind``.

``SymbolTable.kind`` is a list derived from ``level`` in O(n) on every
read, so a ``t.kind[s]`` in a query loop would be quadratic.  These
modules test ``level[s] & 1`` instead: a symbol's kind is its level's
parity.
"""

import ast
from pathlib import Path

import rlslp

PACKAGE = Path(rlslp.__file__).parent
HOT = ("navigator.py", "popped.py", "extension.py", "ipm.py", "builder.py")


def test_hot_modules_read_no_kind():
    found = sorted((name, node.lineno)
                   for name in HOT
                   for node in ast.walk(ast.parse((PACKAGE / name).read_text(), name))
                   if isinstance(node, ast.Attribute) and node.attr == "kind")
    assert not found, "the O(n) kind view is read on a hot path: " + \
        ", ".join(f"{name}:{line}" for name, line in found)
