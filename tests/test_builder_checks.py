"""Every symbol the builder makes passes the table's record checks.

``SymbolTable.add_*`` check a record and append it, and ``intern_*`` put
one dict lookup in front of them.  ``builder.py`` reaches the table only
through ``intern_*``: it calls no ``add_*``, appends to no table column and
reads none of the intern dicts, so a faster shrink loop cannot make a
symbol that skips the checks.
"""

import ast
from pathlib import Path

import rlslp

BUILDER = Path(rlslp.__file__).parent / "builder.py"
COLUMNS = {"arg0", "arg1", "level", "explen"}
DICTS = {"_terminals", "_pairs", "_powers"}


def _bypasses(source):
    """(line, what) for each way ``source`` reaches the table past ``intern_*``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr.startswith("add_") or node.attr in DICTS:
                yield node.lineno, node.attr
            elif (node.attr in ("append", "extend") and isinstance(node.value, ast.Attribute)
                  and node.value.attr in COLUMNS):
                yield node.lineno, f"{node.value.attr}.{node.attr}"
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute) \
                and node.target.attr in COLUMNS:
            yield node.lineno, f"{node.target.attr} +="


def test_builder_makes_symbols_only_through_intern():
    found = sorted(_bypasses(BUILDER.read_text()))
    assert not found, "builder.py reaches the table past intern_*: " + \
        ", ".join(f"line {line} {what}" for line, what in found)


def test_the_check_sees_each_bypass():
    source = """
t.add_pair(b, c, k)
t._pairs.get((b, c))
t._powers[(b, m)] = sid
t._terminals
t.arg0.append(b)
table.explen.extend(lens)
t.level += [k]
t.intern_pair(b, c, k)
s.level + 1
"""
    assert [what for _, what in sorted(_bypasses(source))] == [
        "add_pair", "_pairs", "_powers", "_terminals", "arg0.append", "explen.extend",
        "level +="]
    assert "intern_pair" in BUILDER.read_text() and "intern_power" in BUILDER.read_text()
