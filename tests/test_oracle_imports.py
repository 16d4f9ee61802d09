"""``rlslp.oracle`` reads the grammar alone.

The oracle reads each round's merge sets off the symbol table, so it is the
reference for every recompression grammar, not only for the builder's.  Were
it to import ``rlslp.builder`` (directly or through the package's
re-exports) or read a grammar's seed, it could replay the builder's coin
again, and a grammar built another way would lose its oracle.  So its only
package imports are ``rlslp.errors`` and ``rlslp.grammar``.
"""

import ast
from pathlib import Path

import rlslp

ORACLE = Path(rlslp.__file__).parent / "oracle.py"
ALLOWED = {"errors", "grammar"}


def _in_package(name):
    """``name`` relative to the package (``.builder`` for ``rlslp.builder``,
    ``.`` for ``rlslp``), or None for a module outside it."""
    if name == "rlslp" or name.startswith("rlslp."):
        return "." + name[6:]
    return name if name.startswith(".") else None


def _faults(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = _in_package("." * node.level + (node.module or ""))
            # ``from . import x`` and ``from rlslp import x`` take x from the package
            found = [a.name for a in node.names] if module == "." else [module]
        elif isinstance(node, ast.Import):
            found = [_in_package(a.name) for a in node.names]
        else:
            if isinstance(node, ast.Attribute) and node.attr == "seed":
                yield node.lineno, "reads a seed"
            continue
        yield from ((node.lineno, f"imports {name}") for name in found
                    if name is not None and name.lstrip(".").split(".")[0] not in ALLOWED)


def test_oracle_reads_the_grammar_alone():
    found = list(_faults(ORACLE.read_text()))
    assert not found, "rlslp/oracle.py " + ", ".join(f"line {line} {what}" for line, what in found)


def test_the_check_sees_a_coin_replay():
    for source in ("from .builder import level_string", "from . import builder",
                   "from rlslp.builder import draw_partition", "from rlslp import build",
                   "import rlslp.builder", "import rlslp", "s = g.seed"):
        assert list(_faults(source)), source
