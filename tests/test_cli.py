import errno
import hashlib
import io
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rlslp
from rlslp import lce, rev_lce
from rlslp.builder import build, level_string
from rlslp.cli import load_index, main, save_index
from rlslp.errors import IndexFormatError, InternalInvariantError
from rlslp.grammar import Grammar, SymbolTable
from rlslp.index import _arg_code
from rlslp.ipm import ipm_query
from rlslp.oracle import naive_lce, naive_occ, naive_pseq_levels

from helpers import ALPHABETS, random_text, write_v1_index


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


def _lcg_text(sigma: int, n: int) -> str:
    """``n`` letters over the first ``sigma`` letters, from a fixed 32-bit LCG."""
    x, out = 1, []
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        out.append(chr(ord("a") + (x >> 16) % sigma))
    return "".join(out)


# sha256 of save_index(build(text, seed)): index bytes are fixed for a fixed
# (text, seed), so a change to the coins, the rounds, the interning order or
# the format shows here
@pytest.mark.parametrize("text, seed, digest", [
    ("a" * 300, 0,
     "6b313cd7bc8a1789c13545609d21f662c7bf5f5cb1409220c411e72a405b270a"),
    (_lcg_text(2, 500), 3,
     "3138b7fe12064f8602d63397b6226c66afc0b42470e385bb1c939c189b39dc81"),
    (_lcg_text(4, 1000), 0,
     "b84203416d6affade7e911a79ebb73fc99aef6a9a485129ad9642e974dc85204"),
    (_lcg_text(26, 700), 3,
     "962d4bd163d42c4422753f327c5374ce571eba06cdf575f64494d4289d608a29"),
    (_lcg_text(4, 37) * 30, 0,
     "d508728ce54472dbcf81914a240c3f1dc150df8c3c9a41df6ed0e1a984b2a5b0"),
    ("mississippi", 0,
     "c1d2d41eb0794e0f4eaf8cffa8c7c8e3b9cb2dda4b419d0d6ffea13702ec3770"),
    ("mississippi", 3,
     "6970ec2da67564d83a9e418126e684b10b9f4dd9bfc53ecebba21062bc255081"),
], ids=["sigma1", "sigma2", "sigma4", "sigma26", "tandem", "mississippi-0", "mississippi-3"])
def test_index_bytes_pinned(tmp_path, text, seed, digest):
    path = tmp_path / "idx.rlslp"
    save_index(build(text, seed), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_build_empty_input_exit_2(tmp_path):
    assert main(["build", "--text", "", "--output", str(tmp_path / "x")]) == 2


def test_build_unreadable_input_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", str(tmp_path / "missing.txt"),
              "--output", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_build_unwritable_output_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.idx"
    assert main(["build", "--text", "abc", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write index:") and "Traceback" not in err
    assert not out.exists()


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
    # a "--" among the query words is dropped, wherever it stands
    for words in ("-- lce 0 2", "lce -- 0 2", "lce 0 2 --"):
        assert main(["query", "--index", str(path), *words.split()]) == 0
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
    # words that are not one query form -> the batch's error line, on stderr,
    # 2; a word that argparse would take for an option included
    for words in ("lce 0", "lce 0 x", "foo 1 2", "lce 0 1 2", "lce 0 -x", "lce -x 0",
                  "lce 0 --foo", "-x lce 0", "-x lce --foo 0"):
        assert main(["query", "--index", str(path), *words.split()]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: bad query line '{words}'\n" and out.out == ""
    # a leading minus is still a number: out of range -> 3
    assert main(["query", "--index", str(path), "lce", "-1", "3"]) == 3
    assert capsys.readouterr().err == "error: positions (-1, 3) outside [0, 4]\n"
    # an unknown option elsewhere is still argparse's usage error
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--index", str(path), "-x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -x" in capsys.readouterr().err


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
    assert "format_version: 2" in out
    assert f"index_bytes_per_char: {path.stat().st_size:.3f}" in out
    v1 = tmp_path / "v1.idx"
    write_v1_index(build("abab", 0), v1)
    assert main(["stats", "--index", str(v1)]) == 0
    out = capsys.readouterr().out
    assert "format_version: 1" in out
    assert f"index_bytes_per_char: {v1.stat().st_size / 4:.3f}" in out
    # the counts by kind, each the parity of levels
    path = _build_index(tmp_path, "mississippi")
    capsys.readouterr()
    assert main(["stats", "--index", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:6] == [
        "rounds: 18", "symbols: 12", "text_len: 11", "terminals: 4", "pairs: 5", "powers: 3"]


def test_stats_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_text("not an index\n")
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--index", str(bad)])
    assert exc.value.code == 2


def test_load_rejects_corruption(tmp_path):
    path = tmp_path / "v1.idx"
    write_v1_index(build("abcabc", 0), path)
    lines = path.read_text().splitlines()
    # duplicate id
    broken = "\n".join([lines[0]] + [lines[1]] + lines[1:]) + "\n"
    bad = tmp_path / "c.idx"
    bad.write_text(broken)
    with pytest.raises(IndexFormatError):
        load_index(str(bad))


def _edited_index(tmp_path, old, new):
    """The abracadabraabracadabra index (seed 0), written in version 1, with
    one edit made."""
    path = tmp_path / "v1.idx"
    write_v1_index(build("abracadabraabracadabra", 0), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return path


def _assert_rejected(path, match, capsys):
    with pytest.raises(IndexFormatError, match=match):
        load_index(str(path))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["query", "--index", str(path), "ipm", "0", "11", "0", "21"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_load_rejects_rounds_other_than_start_level(tmp_path, capsys):
    path = _edited_index(tmp_path, " rounds=34 ", " rounds=1 ")
    _assert_rejected(path, "rounds=1 does not match", capsys)


def test_load_rejects_pair_on_odd_level(tmp_path, capsys):
    path = _edited_index(tmp_path, "\n6 P 2 0 2\n", "\n6 P 2 0 3\n")
    _assert_rejected(path, "pair on odd level 3 on line 7", capsys)


def test_load_rejects_power_on_even_level(tmp_path, capsys):
    path = _edited_index(tmp_path, "\n5 R 0 2 1\n", "\n5 R 0 2 2\n")
    _assert_rejected(path, "power on even level 2 on line 6", capsys)


def test_load_rejects_seed_out_of_range(tmp_path, capsys):
    for seed in (-1, 1 << 64):
        path = _edited_index(tmp_path, " seed=0 ", f" seed={seed} ")
        _assert_rejected(path, "outside", capsys)


@pytest.mark.parametrize("old, new, match", [
    ("\n6 P 2 0 2\n", "\n6 P 2 9 2\n", "invalid symbol 6: symbol id 9 not in table"),
    ("\n6 P 2 0 2\n", "\n6 P -1 0 2\n", "invalid symbol 6: symbol id -1 not in table"),
    ("\n5 R 0 2 1\n", "\n5 R 7 2 1\n", "invalid symbol 5: symbol id 7 not in table"),
    ("\n0 T 97\n", "\n0 T -5\n", "invalid symbol 0: codepoint -5 outside"),
    ("\n6 P 2 0 2\n", "\n6 P 2 0 0\n", "pair on level 0 on line 7"),
], ids=["pair-forward-reference", "pair-negative-child", "power-forward-reference",
        "negative-codepoint", "pair-on-level-0"])
def test_load_rejects_bad_record(tmp_path, capsys, old, new, match):
    _assert_rejected(_edited_index(tmp_path, old, new), match, capsys)


@pytest.mark.parametrize("record", ["20 T 97", "20 P 2 0 2", "20 R 0 2 1", "20 P 2 0 4"],
                         ids=["terminal", "pair", "power", "pair-at-another-level"])
def test_load_rejects_repeated_production(tmp_path, capsys, record):
    path = _edited_index(tmp_path, " symbols=20 ", " symbols=21 ")
    path.write_text(path.read_text() + record + "\n")
    _assert_rejected(path, "duplicate symbol 20", capsys)


def _ab_index_at_level(tmp_path, level):
    """The "ab" index (seed 0), written in version 1, with its last record,
    the start pair, and the header's ``rounds`` moved to ``level``."""
    g = build("ab", 0)
    path = tmp_path / "v1.idx"
    write_v1_index(g, path)
    head, *records = path.read_text().splitlines()
    sid, tag, b, c, _ = records[-1].split()
    assert tag == "P" and int(sid) == g.start
    records[-1] = f"{sid} P {b} {c} {level}"
    head = head.replace(f" rounds={g.rounds} ", f" rounds={level} ")
    path.write_text("\n".join([head, *records]) + "\n")
    return path


def test_load_rejects_level_version_2_cannot_hold(tmp_path, capsys):
    _assert_rejected(_ab_index_at_level(tmp_path, 70000),
                     "level 70000 above 65535 at symbol 2", capsys)
    # the highest level a pair can have still loads, saves and loads again
    g = load_index(str(_ab_index_at_level(tmp_path, 65534)))
    save_index(g, str(tmp_path / "v2.idx"))
    g2 = load_index(str(tmp_path / "v2.idx"))
    assert g2.rounds == 65534 and g2.table.level == g.table.level
    assert main(["query", "--index", str(tmp_path / "v2.idx"), "lce", "0", "1"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_deep_loaded_grammar_expands(tmp_path):
    # a chain of 1500 pairs, (((ab)b)b)..., deeper than the recursion limit
    t = SymbolTable()
    s, b = t.add_terminal(ord("a")), t.add_terminal(ord("b"))
    for k in range(1, 1500):
        s = t.add_pair(s, b, 2 * k)
    path = tmp_path / "deep.idx"
    save_index(Grammar(table=t, start=s, rounds=2 * 1499, seed=0, text_len=1500), str(path))
    g = load_index(str(path))
    assert g.expand(g.start) == "a" + "b" * 1499
    assert g.expand(g.start) == "".join(g.expand(s) for s in level_string(g, 0).symbols)


def _v2_index(tmp_path, edit):
    """The abracadabraabracadabra index (seed 0), version 2, with its header
    fields and its ``arg0``/``arg1``/``level`` columns passed through
    ``edit(fields, arg0, arg1, level)`` and written back."""
    path = _build_index(tmp_path, "abracadabraabracadabra")
    head, _, payload = path.read_bytes().partition(b"\n")
    fields = dict(item.split("=") for item in head.decode("ascii").split()[1:])
    n = int(fields["symbols"])
    arg0 = list(struct.unpack_from(f"<{n}i", payload))
    arg1 = list(struct.unpack_from(f"<{n}i", payload, 4 * n))
    level = list(struct.unpack_from(f"<{n}H", payload, 8 * n))
    edit(fields, arg0, arg1, level)
    m = len(level)
    head = "RLSLP1 " + " ".join(f"{k}={v}" for k, v in fields.items())
    path.write_bytes(head.encode("ascii") + b"\n" + struct.pack(f"<{m}i", *arg0)
                     + struct.pack(f"<{m}i", *arg1) + struct.pack(f"<{m}H", *level))
    return path


def _set(column, sid, value):
    def edit(fields, arg0, arg1, level):
        {"arg0": arg0, "arg1": arg1, "level": level}[column][sid] = value
    return edit


def _append(record):
    def edit(fields, arg0, arg1, level):
        fields["symbols"] = str(int(fields["symbols"]) + 1)
        for col, val in zip((arg0, arg1, level), record):
            col.append(val)
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set("arg1", 6, 9), "invalid symbol 6: symbol id 9 not in table"),
    (_set("arg0", 6, -1), "invalid symbol 6: symbol id -1 not in table"),
    (_set("arg0", 5, 7), "invalid symbol 5: symbol id 7 not in table"),
    (_set("arg1", 6, 2), "invalid symbol 6: pair children must differ"),
    (_set("arg1", 5, 1), "invalid symbol 5: power exponent must be >= 2, got 1"),
    (_set("level", 10, 6), "invalid symbol 10: pair level 6 not above children levels 0, 6"),
    (_set("arg1", 0, 1), "terminal with arg1 1 at symbol 0"),
    (_set("arg0", 0, 0x110000), "invalid symbol 0: codepoint 1114112 outside"),
    (_append((97, 0, 0)), "duplicate symbol 20"),
    (_append((2, 0, 2)), "duplicate symbol 20"),
    (_append((0, 2, 1)), "duplicate symbol 20"),
    (_append((2, 0, 4)), "duplicate symbol 20"),
    (lambda fields, *cols: fields.update(symbols="21"), "payload of 200 bytes"),
    (lambda fields, *cols: fields.update(symbols="19"), "payload of 200 bytes"),
    (lambda fields, *cols: fields.update(version="3"), "unsupported version 3"),
], ids=["pair-forward-child", "pair-negative-child", "power-forward-base",
        "equal-pair-children", "exponent-1", "level-not-above-child", "terminal-arg1",
        "codepoint-out-of-range", "repeated-terminal", "repeated-pair", "repeated-power",
        "repeated-pair-at-another-level", "symbols-plus-one", "symbols-minus-one",
        "version-3"])
def test_load_v2_rejects_bad_record(tmp_path, capsys, edit, match):
    _assert_rejected(_v2_index(tmp_path, edit), match, capsys)


@pytest.mark.parametrize("cut, tail", [(-1, b""), (0, b"\0"), (0, b"\n")],
                         ids=["truncated", "trailing-zero", "trailing-newline"])
def test_load_v2_rejects_payload_size(tmp_path, capsys, cut, tail):
    path = _build_index(tmp_path, "abracadabraabracadabra")
    data = path.read_bytes()
    path.write_bytes(data[:len(data) + cut] + tail)
    _assert_rejected(path, "does not hold symbols=20 records", capsys)


def test_load_v2_fuzz_raises_only_index_format_error(tmp_path):
    data = _build_index(tmp_path, "abracadabra", seed=2).read_bytes()
    path = tmp_path / "fuzz.idx"
    variants = [data[:cut] for cut in range(len(data))]
    variants += [data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
                 for i in range(len(data)) for mask in (1, 2, 4, 8, 16, 32, 64, 128, 255)]
    variants.append(data.replace(b" version=2 ", b" version=1 ", 1))  # binary read as text
    loaded = 0
    for variant in variants:
        path.write_bytes(variant)  # a new file each time: truncating one can be slow
        try:
            load_index(str(path))
            loaded += 1
        except IndexFormatError:
            pass
        path.unlink()
    assert 0 < loaded < len(variants)


def test_v1_and_v2_load_identical_tables(tmp_path):
    rng = random.Random(41)
    for trial in range(30):
        text = random_text(rng, 200, ALPHABETS[trial % len(ALPHABETS)])
        g = build(text, trial)
        v1, v2, again = (tmp_path / f"{trial}.{ext}" for ext in ("v1", "v2", "again"))
        write_v1_index(g, v1)
        save_index(g, str(v2))
        g1, g2 = load_index(str(v1)), load_index(str(v2))
        for name in ("kind", "arg0", "arg1", "level", "explen"):
            assert getattr(g1.table, name) == getattr(g2.table, name) == getattr(g.table, name)
        assert (g1.start, g1.rounds, g1.seed, g1.text_len) == \
            (g2.start, g2.rounds, g2.seed, g2.text_len) == (g.start, g.rounds, g.seed, g.text_len)
        save_index(g1, str(again))
        assert again.read_bytes() == v2.read_bytes()


def test_wide_columns_roundtrip(tmp_path, monkeypatch):
    assert _arg_code((1 << 31) - 0x110000 - 1) == "i"
    assert _arg_code((1 << 31) - 0x110000) == "q"
    g = build("abracadabraabracadabra", 0)
    monkeypatch.setattr("rlslp.index._arg_code", lambda text_len: "q")
    path = tmp_path / "wide.idx"
    save_index(g, str(path))
    head = path.read_bytes().partition(b"\n")[0]
    assert path.stat().st_size == len(head) + 1 + 18 * len(g.table)
    g2 = load_index(str(path))
    assert (g2.table.arg0, g2.table.arg1, g2.table.level) == \
        (g.table.arg0, g.table.arg1, g.table.level)


def test_loaded_table_is_lean(tmp_path):
    rng = random.Random(1)
    g = build("".join(rng.choice("abcd") for _ in range(1 << 14)), 1)
    path = tmp_path / "lean.idx"
    save_index(g, str(path))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_index(str(path))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    t = loaded.table
    assert len(t) == len(g.table)
    assert held <= 110 * len(t), f"{held / len(t):.1f} bytes per symbol"
    assert not t._terminals and not t._pairs and not t._powers


def test_oracle_runs_on_loaded_grammars(tmp_path):
    rng = random.Random(23)
    for trial in range(30):
        text = random_text(rng, 200, ALPHABETS[trial % len(ALPHABETS)])
        g = build(text, trial)
        path = tmp_path / f"o{trial}.idx"
        save_index(g, str(path))
        g2 = load_index(str(path))
        n = len(text)
        for _ in range(10):
            x = rng.randrange(n)
            x2 = rng.randint(x + 1, n)
            assert naive_pseq_levels(g2, x, x2) == naive_pseq_levels(g, x, x2)


def test_query_batch_matches_one_shot(tmp_path, capsys, monkeypatch):
    path = _build_index(tmp_path, "abracadabraabracadabra")
    queries = ["lce 0 11", "revlce 11 22", "ipm 0 4 7 14", "lce 3 22",
               "ipm 0 4 18 25", "ipm 1 5 9 16", "revlce 0 5", "ipm 0 11 11 22"]
    lines = queries[:3] + ["lce 0 x"] + queries[3:]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    capsys.readouterr()
    assert main(["query", "--index", str(path), "--batch"]) == 3
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(lines)
    assert got[3] == "error: bad query line 'lce 0 x'"
    del got[3]
    codes = []
    for query, batch_line in zip(queries, got):
        codes.append(main(["query", "--index", str(path), *query.split()]))
        out = capsys.readouterr()
        assert batch_line == (out.err if codes[-1] else out.out).strip()
    assert codes.count(3) == 1 and codes.count(0) == len(queries) - 1
    # --batch and a one-shot op exclude each other, and one of them is needed
    for args in (["--batch", "lce", "0", "1"], []):
        assert main(["query", "--index", str(path), *args]) == 2
        assert capsys.readouterr().err.startswith("error:")


class _Unwritable:
    """A stdout whose every write fails with ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def write(self, s):
        raise self.exc

    def flush(self):
        pass


@pytest.mark.parametrize("exc", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                 OSError(errno.ENOSPC, "No space left on device")],
                         ids=["broken-pipe", "disk-full"])
@pytest.mark.parametrize("args", [["lce", "0", "7"], ["--batch"], None],
                         ids=["query", "batch", "stats"])
def test_unwritable_stdout_exit_2(tmp_path, capsys, monkeypatch, exc, args):
    path = _build_index(tmp_path, "abracadabraabracadabra")
    capsys.readouterr()
    argv = ["stats", "--index", str(path)] if args is None else \
        ["query", "--index", str(path), *args]
    monkeypatch.setattr("sys.stdin", io.StringIO("lce 0 7\n" * 20_000))
    monkeypatch.setattr("sys.stdout", _Unwritable(exc))
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert capsys.readouterr().err == f"error: cannot write output: {exc}\n"


def test_unwritable_stdout_in_a_process(tmp_path):
    # the reader is gone before the first answer: one error line, exit 2, and
    # no second complaint when the interpreter flushes stdout at exit
    path = _build_index(tmp_path, "abracadabraabracadabra")
    env = dict(os.environ, PYTHONPATH=str(Path(rlslp.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "rlslp.cli", "query", "--index", str(path),
                             "--batch"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(b"lce 0 7\n" * 20_000, timeout=60)
    assert proc.returncode == 2
    assert err.decode() == "error: cannot write output: [Errno 32] Broken pipe\n"


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


@pytest.mark.parametrize("option", [
    ["--max-len", "2000"],
    ["--max-len", "0"],
    ["--alphabet", ""],
    ["--alphabet", "0"],
    ["--alphabet", "x"],
    ["--trials", "-5"],
    ["--alphabet", "2000000"],
])
def test_selftest_rejects_bad_option(capsys, option):
    assert main(["selftest", "--trials", "3", *option]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and option[0] in captured.err
    assert "passed" not in captured.out


def test_selftest_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setattr("rlslp.selftest.lce", lambda g, i, i2: lce(g, i, i2) + 1)
    assert main(["selftest", "--trials", "3"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("selftest FAILED at trial 0\n") and "lce mismatch" in out


def test_serving_path_loads_no_oracle():
    # -S: an interpreter's site hooks may import random on their own
    src = Path(rlslp.__file__).parent.parent
    probe = ("import sys, rlslp.cli; "
             "print(sorted({'rlslp.oracle', 'rlslp.selftest', 'random'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout == "[]\n"
