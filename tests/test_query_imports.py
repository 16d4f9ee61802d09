"""A one-shot query imports only the query path.

``rlslp query`` and ``rlslp stats`` load an index and read it, so they need
neither the builder, nor the oracle, nor ``dataclasses`` (which pulls in
``inspect``): the package loads ``rlslp.builder`` on first use of ``build``
or ``level_string``, and its records are ``rlslp.grammar.Record`` classes.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlslp
from rlslp.index import save_index

PACKAGE = Path(rlslp.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
UNUSED = ("rlslp.builder", "rlslp.oracle", "dataclasses")

_PROBE = """
import sys
from rlslp.cli import main
codes = [main(["query", "--index", sys.argv[1], "ipm", "0", "3", "0", "5"]),
         main(["stats", "--index", sys.argv[1]])]
print(codes, sorted(set(sys.argv[2:]) & set(sys.modules)))
"""


def test_query_and_stats_import_no_builder(tmp_path):
    path = tmp_path / "idx.rlslp"
    save_index(rlslp.build("abracadabra" * 9, 0), str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PROBE, str(path), *UNUSED],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


def _dataclass_imports(name):
    for node in ast.walk(ast.parse((PACKAGE / name).read_text(), name)):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses" or \
                isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names):
            yield node.lineno


def test_modules_import_no_dataclasses():
    assert {"grammar.py", "ipm.py", "builder.py"} <= set(MODULES)
    found = sorted((name, line) for name in MODULES for line in _dataclass_imports(name))
    assert not found, "a module imports dataclasses: " + \
        ", ".join(f"{name}:{line}" for name, line in found)


def test_package_names_resolve():
    from rlslp.builder import build, level_string
    assert (rlslp.build, rlslp.level_string) == (build, level_string)
    star = {}
    exec("from rlslp import *", star)
    assert set(rlslp.__all__) <= set(star)
    assert star["build"] is build
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        rlslp.nothing
