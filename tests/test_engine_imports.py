"""The query modules import only the navigation engine.

``rlslp.navigator`` is ``Navigator``, ``leaf``, ``leaves`` and ``highest``.  The query
loops do every other move (``up``, ``ahead``, ``jump``, ``first_child`` and
the climb-and-descend walk) inline, so a per-move function call cannot come
back into a query loop through an import.
"""

import ast
from pathlib import Path

import rlslp

PACKAGE = Path(rlslp.__file__).parent
QUERY = ("popped.py", "extension.py", "ipm.py")
ENGINE = {"Navigator", "leaf", "leaves", "highest"}


def _navigator_imports(name):
    for node in ast.walk(ast.parse((PACKAGE / name).read_text(), name)):
        if isinstance(node, ast.ImportFrom) and node.module in ("navigator", "rlslp.navigator"):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the module itself
            yield from (("navigator", node.lineno) for alias in node.names
                        if alias.name in ("navigator", "rlslp.navigator"))


def test_query_modules_import_only_the_engine():
    found = sorted((name, line, what) for name in QUERY
                   for what, line in _navigator_imports(name) if what not in ENGINE)
    assert not found, "a query module imports a navigator name beyond the engine: " + \
        ", ".join(f"{name}:{line} {what}" for name, line, what in found)


def test_query_modules_use_the_engine():
    # the check above sees the imports it is meant to see
    assert {what for name in QUERY for what, _ in _navigator_imports(name)} == ENGINE
