"""No check in the package may vanish under ``python -O``.

An ``assert`` statement is compiled away with optimizations on, so the
package raises typed errors (``rlslp.errors``) instead.
"""

import ast
from pathlib import Path

import rlslp

PACKAGE = Path(rlslp.__file__).parent


def test_package_has_no_assert_statements():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = sorted(f"{path.name}:{node.lineno}"
                   for path in files
                   for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, ast.Assert))
    assert not found, "assert statements vanish under python -O: " + ", ".join(found)
