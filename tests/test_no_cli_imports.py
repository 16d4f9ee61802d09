"""No module of the package imports ``rlslp.cli``.

``rlslp.cli`` is the front end: ``python -m rlslp.cli`` runs it as
``__main__``, so a module that imported it back, as ``rlslp.selftest`` once
did for its ``error:`` printer, would load a second copy of it.
"""

import ast
from pathlib import Path

import rlslp

PACKAGE = Path(rlslp.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "cli.py")


def _cli_imports(name):
    for node in ast.walk(ast.parse((PACKAGE / name).read_text(), name)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".cli", "rlslp.cli") or \
                    module in (".", "rlslp") and any(a.name == "cli" for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.Import) and any(a.name == "rlslp.cli" for a in node.names):
            yield node.lineno


def test_modules_import_no_cli():
    assert {"selftest.py", "index.py"} <= set(MODULES)
    found = sorted((name, line) for name in MODULES for line in _cli_imports(name))
    assert not found, "a module imports the command line: " + \
        ", ".join(f"{name}:{line}" for name, line in found)
