import random

import pytest

from rlslp import lce, rev_lce
from rlslp.builder import build
from rlslp.cli import load_index, main, save_index
from rlslp.errors import IndexFormatError, InternalInvariantError
from rlslp.ipm import ipm_query
from rlslp.oracle import naive_lce, naive_occ

from helpers import random_text


def _build_index(tmp_path, text, seed=0):
    path = tmp_path / "idx.rlslp"
    assert main(["build", "--text", text, "--seed", str(seed),
                 "--output", str(path)]) == 0
    return path


def test_build_single_char(tmp_path, capsys):
    path = _build_index(tmp_path, "a")
    g = load_index(str(path))
    assert g.rounds == 0 and len(g.table) == 1
    assert g.expand(g.start) == "a"


def test_build_deterministic_bytes(tmp_path):
    p1 = tmp_path / "a.idx"
    p2 = tmp_path / "b.idx"
    for p in (p1, p2):
        assert main(["build", "--text", "mississippi", "--seed", "3",
                     "--output", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_build_empty_input_exit_2(tmp_path):
    assert main(["build", "--text", "", "--output", str(tmp_path / "x")]) == 2


def test_build_unreadable_input_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", str(tmp_path / "missing.txt"),
              "--output", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_build_from_file_roundtrips_bytes(tmp_path):
    data = bytes(range(256)) * 3
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out = tmp_path / "bin.idx"
    assert main(["build", "--input", str(src), "--output", str(out)]) == 0
    g = load_index(str(out))
    assert g.expand(g.start).encode("latin-1") == data


def test_query_lce_and_revlce(tmp_path, capsys):
    path = _build_index(tmp_path, "abab")
    capsys.readouterr()
    assert main(["query", "--index", str(path), "lce", "0", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["query", "--index", str(path), "lce", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["query", "--index", str(path), "revlce", "4", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_query_ipm_output(tmp_path, capsys):
    path = _build_index(tmp_path, "aaaaaa")
    capsys.readouterr()
    assert main(["query", "--index", str(path), "ipm", "0", "2", "1", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 2"
    # self match prints a singleton
    assert main(["query", "--index", str(path), "ipm", "1", "3", "1", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 1"


def test_query_ipm_empty_result(tmp_path, capsys):
    path = _build_index(tmp_path, "abcdef")
    capsys.readouterr()
    assert main(["query", "--index", str(path), "ipm", "0", "3", "3", "6"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 0"


def test_query_error_exit_codes(tmp_path, capsys):
    path = _build_index(tmp_path, "aaaa")
    capsys.readouterr()
    # ratio violation -> 3
    assert main(["query", "--index", str(path), "ipm", "0", "1", "0", "4"]) == 3
    assert "error" in capsys.readouterr().err
    # out of range -> 3
    assert main(["query", "--index", str(path), "lce", "0", "9"]) == 3
    capsys.readouterr()
    # malformed arguments -> argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main(["query", "--index", str(path), "lce", "0"])
    assert exc.value.code == 2


def test_query_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    path = _build_index(tmp_path, "abab")
    capsys.readouterr()

    def broken(*args):
        raise InternalInvariantError("proxy window not contiguous")

    monkeypatch.setattr("rlslp.cli.ipm_query", broken)
    assert main(["query", "--index", str(path), "ipm", "0", "2", "0", "3"]) == 4
    assert "proxy window not contiguous" in capsys.readouterr().err


def test_stats(tmp_path, capsys):
    path = _build_index(tmp_path, "a")
    capsys.readouterr()
    assert main(["stats", "--index", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rounds: 0" in out and "symbols: 1" in out and "terminals: 1" in out


def test_stats_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_text("not an index\n")
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--index", str(bad)])
    assert exc.value.code == 2


def test_load_rejects_corruption(tmp_path):
    path = _build_index(tmp_path, "abcabc")
    lines = path.read_text().splitlines()
    # duplicate id
    broken = "\n".join([lines[0]] + [lines[1]] + lines[1:]) + "\n"
    bad = tmp_path / "c.idx"
    bad.write_text(broken)
    with pytest.raises(IndexFormatError):
        load_index(str(bad))


def test_roundtrip_answers_match(tmp_path):
    rng = random.Random(97)
    for trial in range(12):
        text = random_text(rng, 64, (2, 4, 26)[trial % 3])
        g = build(text, trial)
        path = tmp_path / f"t{trial}.idx"
        save_index(g, str(path))
        g2 = load_index(str(path))
        n = g.text_len
        for _ in range(40):
            i, i2 = rng.randint(0, n), rng.randint(0, n)
            assert lce(g2, i, i2) == lce(g, i, i2) == naive_lce(text, i, i2)
            assert rev_lce(g2, i, i2) == rev_lce(g, i, i2)
        for _ in range(15):
            xl = rng.randint(1, n)
            x = rng.randint(0, n - xl)
            yl = rng.randint(1, min(2 * xl - 1, n))
            y = rng.randint(0, n - yl)
            a = ipm_query(g, x, x + xl, y, y + yl)
            b = ipm_query(g2, x, x + xl, y, y + yl)
            assert a == b
            assert list(a.positions()) == naive_occ(text, x, x + xl, y, y + yl)
        # re-save is byte-identical
        second = tmp_path / f"t{trial}b.idx"
        save_index(g2, str(second))
        assert second.read_bytes() == path.read_bytes()


def test_selftest_zero_trials(capsys):
    assert main(["selftest", "--trials", "0"]) == 0
    assert "passed" in capsys.readouterr().out


def test_selftest_small_run(capsys):
    assert main(["selftest", "--trials", "40", "--max-len", "32", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


def test_selftest_reproducible(capsys):
    args = ["selftest", "--trials", "25", "--max-len", "24", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
