"""README's examples run as written.

Each ``rlslp ...`` line of the ``## CLI`` block goes through ``main()`` in a
temporary directory: it must exit 0, and a bare ``# -> N`` comment must be
its output.  The ``## Library use`` block is executed, and the example
header line is the one ``save_index`` writes.  A change to the command
line, the library or the index format that the README does not follow
fails here.
"""

import io
import re
import shlex
from pathlib import Path

from rlslp import build
from rlslp.cli import main, save_index

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_cli_examples(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.bin").write_bytes(bytes(range(256)) * 4)
    ran = 0
    for line in _block("CLI", "sh").splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if not words:
            continue
        stdin = ""
        if words[0] == "printf":
            bar = words.index("|")
            stdin = words[1].encode("ascii").decode("unicode_escape")
            words = words[bar + 1:]
        assert words[0] == "rlslp", line
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(words[1:]) == 0, line
        out = capsys.readouterr().out
        want = re.fullmatch(r"\s*-> (\d+)\s*", comment)
        if want:
            assert out.strip() == want.group(1), line
        ran += 1
    assert ran >= 7


def test_library_example():
    exec(_block("Library use", "python"), {})


def test_index_header_example(tmp_path):
    example = re.search(r"^RLSLP1 .*$", README, re.M).group(0)
    save_index(build("abracadabraabracadabra", 0), str(tmp_path / "abra.idx"))
    assert (tmp_path / "abra.idx").read_bytes().split(b"\n", 1)[0].decode("ascii") == example
