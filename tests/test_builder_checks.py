"""Every symbol the builder makes passes the table's record checks.

``SymbolTable.add_*`` check a record and append it.  ``builder.py`` appends
to the table only through ``add_*``: it writes to no table column, so a
faster shrink loop cannot make a symbol that skips the checks.
"""

import ast
from pathlib import Path

import rlslp

BUILDER = Path(rlslp.__file__).parent / "builder.py"
COLUMNS = {"arg0", "arg1", "level", "explen"}


def _column(node):
    """The table column that ``node`` names, or None."""
    return node.attr if isinstance(node, ast.Attribute) and node.attr in COLUMNS else None


def _bypasses(source):
    """(line, what) for each write to a table column in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in ("append", "extend", "insert") and _column(node.value):
                yield node.lineno, f"{node.value.attr}.{node.attr}"
        elif isinstance(node, ast.AugAssign) and _column(node.target):
            yield node.lineno, f"{node.target.attr} +="
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if _column(t):
                        yield node.lineno, f"{t.attr} ="
                    elif isinstance(t, ast.Subscript) and _column(t.value):
                        yield node.lineno, f"{t.value.attr}[] ="


def test_builder_makes_symbols_only_through_add():
    found = sorted(_bypasses(BUILDER.read_text()))
    assert not found, "builder.py writes to a table column: " + \
        ", ".join(f"line {line} {what}" for line, what in found)


def test_the_check_sees_each_bypass():
    source = """
t.arg0.append(b)
table.explen.extend(lens)
t.arg1.insert(0, c)
t.level += [k]
t.level[sid] = k
t.arg0, x = arg0, 1
t.add_pair(b, c, k)
add = table.add_power
s.level + 1
"""
    assert [what for _, what in sorted(_bypasses(source))] == [
        "arg0.append", "explen.extend", "arg1.insert", "level +=", "level[] =", "arg0 ="]
    assert all(f"add_{kind}" in BUILDER.read_text() for kind in ("terminal", "pair", "power"))
