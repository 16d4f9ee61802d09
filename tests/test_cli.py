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
from rlslp.builder import _SLICE, LevelString, build, level_string, shrink_pc, shrink_rle
from rlslp.cli import load_index, main, save_index
from rlslp.errors import IndexFormatError, InternalInvariantError
from rlslp.grammar import Grammar, SymbolTable
from rlslp.index import _arg_code
from rlslp.ipm import ipm_query
from rlslp.oracle import naive_lce, naive_occ, naive_pseq_levels

from helpers import ALPHABETS, random_text, ref_from_columns, text_corpus


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


# a pair round of this text draws more coins than one packed slice holds
_WIDE_TEXT = _lcg_text(26, 12_000)


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
    (_WIDE_TEXT, 0,
     "15490c5944da184e5b0d2950d84bf8dc7b48e1fe30076b0c854d48a589098d89"),
    # 21000 characters of one 7-letter period: repeated pairs fill the pair rounds
    (_lcg_text(4, 7) * 3000, 0,
     "fdf803736e929125199e292833a6cb163a6b3214f1ab21ee54da47670beca0c1"),
], ids=["sigma1", "sigma2", "sigma4", "sigma26", "tandem", "mississippi-0", "mississippi-3",
        "sigma26-wide", "tandem-long"])
def test_index_bytes_pinned(tmp_path, text, seed, digest):
    path = tmp_path / "idx.rlslp"
    save_index(build(text, seed), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_wide_text_crosses_a_slice():
    # the sigma26-wide digest pins coins drawn across a slice boundary only
    # while some pair round (an odd level string) has more than _SLICE
    # distinct symbols
    g = build(_WIDE_TEXT, 0)
    assert max(len(set(level_string(g, k).symbols))
               for k in range(1, g.rounds, 2)) > _SLICE


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


def test_build_text_takes_the_argument_bytes(tmp_path, capsys):
    # argv decodes the byte 0xff, not UTF-8, to the surrogate U+DCFF
    src = tmp_path / "input.bin"
    src.write_bytes(b"ab\xffc")
    for source in (["--input", str(src)], ["--text", "ab\udcffc"]):
        out = tmp_path / f"{source[0][2:]}.idx"
        assert main(["build", *source, "--output", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["build", *source, "--utf8", "--output", str(tmp_path / "utf8.idx")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: input is not valid UTF-8")
    assert (tmp_path / "text.idx").read_bytes() == (tmp_path / "input.idx").read_bytes()
    assert load_index(str(tmp_path / "text.idx")).text_len == 4


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
    # a reversed fragment inside the text is named as reversed -> 3
    assert main(["query", "--index", str(path), "ipm", "4", "0", "0", "3"]) == 3
    assert capsys.readouterr().err == "error: fragment X = [4,0) is reversed\n"
    assert main(["query", "--index", str(path), "ipm", "0", "2", "3", "1"]) == 3
    assert capsys.readouterr().err == "error: fragment Y = [3,1) is reversed\n"
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


def test_build_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    # a pair shrink that merges nothing fails every seed: one stderr line,
    # no traceback, no index
    monkeypatch.setattr("rlslp.builder.shrink_pc",
                        lambda s, left, *cols: LevelString(s.level + 1, s.symbols))
    path = tmp_path / "never.idx"
    assert main(["build", "--text", "ab", "--output", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: no seed of 0 to 7 left one symbol within 48 rounds\n"
    assert not path.exists()


def _first_record_faulty(name, first_round, column, value):
    """``name`` and the builder's shrink ``name`` with ``column`` of the
    first record it appends in each round from ``first_round`` on set to
    ``value(sid, cols)``; the lowest faulty id is that of the first such
    round."""
    real = {"shrink_rle": shrink_rle, "shrink_pc": shrink_pc}[name]

    def shrink(s, *args):
        cols = args[-3:]
        sid = len(cols[2])
        out = real(s, *args)
        if sid < len(cols[2]) and s.level + 1 >= first_round:
            cols[column][sid] = value(sid, cols)
        return out
    return name, shrink


def _pc_without_round_dict(s, left, arg0, arg1, level):
    """The builder's pair round, but each merge after a pair's first makes
    the pair again under a new id."""
    first = len(level)
    out = shrink_pc(s, left, arg0, arg1, level)
    seen = set()
    for i, sid in enumerate(out.symbols):
        if sid in seen:
            out.symbols[i] = len(level)
            for col in (arg0, arg1, level):
                col.append(col[sid])
        elif sid >= first:
            seen.add(sid)
    return out


def _rle_losing_last_symbol(s, *cols):
    """The builder's run round, but it drops its last symbol while more than
    one is left."""
    out = shrink_rle(s, *cols)
    if len(out.symbols) > 1:
        out.symbols.pop()
    return out


@pytest.mark.parametrize("faulty, text, message", [
    # a pair's right child set to its left one
    (_first_record_faulty("shrink_pc", 2, 1, lambda i, c: c[0][i]), "aab",
     "invalid symbol 3: pair children must differ, got 2 twice"),
    # a power's exponent set to 1
    (_first_record_faulty("shrink_rle", 1, 1, lambda i, c: 1), "aab",
     "invalid symbol 2: power exponent must be >= 2, got 1"),
    # a pair's right child set to the id after its own
    (_first_record_faulty("shrink_pc", 2, 1, lambda i, c: i + 1), "aab",
     "invalid symbol 3: symbol id 4 not in table"),
    # a pair recorded at its left child's level, from round 4 on, where the
    # first pair of this text (seed 0) has a pair as its left child
    (_first_record_faulty("shrink_pc", 4, 2, lambda i, c: c[2][c[0][i]]), "abcdefghabcdefgh",
     "invalid symbol 10: pair level 2 not above children levels 2, 0"),
    # a pair round without its dict
    (("shrink_pc", _pc_without_round_dict), "abababababcabab", "duplicate symbol 5"),
    # a run round that loses the b of aab: the last symbol, a^2, expands to
    # 2 of the text's 3 characters
    (("shrink_rle", _rle_losing_last_symbol), "aab",
     "text_len does not match the start symbol expansion"),
], ids=["equal-children", "exponent-1", "unmade-child", "level-not-above-child",
        "repeated-production", "lost-symbol"])
def test_build_faulty_record_exit_4(tmp_path, capsys, monkeypatch, faulty, text, message):
    # a shrink that appends a faulty record, repeats a production under a
    # new id or loses a symbol fails the check a loaded index passes: build raises
    # InternalInvariantError with the loader's message, and rlslp build
    # prints it as one line, exits 4 and writes no index
    name, shrink = faulty
    monkeypatch.setattr(f"rlslp.builder.{name}", shrink)
    with pytest.raises(InternalInvariantError, match=f"^{message}$"):
        build(text, 0)
    path = tmp_path / "never.idx"
    assert main(["build", "--text", text, "--output", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"internal error: {message}\n"
    assert not path.exists()


def test_stats(tmp_path, capsys):
    path = _build_index(tmp_path, "a")
    capsys.readouterr()
    assert main(["stats", "--index", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rounds: 0" in out and "symbols: 1" in out and "terminals: 1" in out
    assert "format_version: 2" in out
    assert f"index_bytes_per_char: {path.stat().st_size:.3f}" in out
    assert out.splitlines()[-1] == "descent_frontier: 1 nodes, 1 chars"  # the root
    # the counts by kind, each the parity of levels; B = 1 below 512
    # characters, so the frontier is m i ss i ss i pp i
    path = _build_index(tmp_path, "mississippi")
    capsys.readouterr()
    assert main(["stats", "--index", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "rounds: 18", "symbols: 12", "text_len: 11", "terminals: 4", "pairs: 5", "powers: 3",
        "seed: 0", "format_version: 2", "index_bytes_per_char: 16.909",
        "descent_frontier: 8 nodes, 1 chars"]
    # B = n >> 8 from 512 characters on: the frontier of the start symbol
    path = _build_index(tmp_path, random_text(random.Random(5), 2048, 4, min_len=2048))
    capsys.readouterr()
    assert main(["stats", "--index", str(path)]) == 0
    tops = rlslp.Navigator(load_index(str(path))).frontier[2]
    assert capsys.readouterr().out.splitlines()[-1] == f"descent_frontier: {len(tops)} nodes, 8 chars"


def test_stats_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_text("not an index\n")
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--index", str(bad)])
    assert exc.value.code == 2


def _assert_rejected(path, match, capsys):
    with pytest.raises(IndexFormatError, match=match):
        load_index(str(path))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["query", "--index", str(path), "ipm", "0", "11", "0", "21"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_deep_loaded_grammar_expands(tmp_path):
    # a chain of 1500 pairs, (((ab)b)b)..., deeper than the recursion limit:
    # symbols 0 and 1 are a and b, pair k is symbol k + 1 with left child k
    # (a for k = 1) and right child b
    arg0 = [ord("a"), ord("b"), 0, *range(2, 1500)]
    arg1 = [0, 0] + [1] * 1499
    level = [0, 0] + list(range(2, 3000, 2))
    t = SymbolTable.from_columns(arg0, arg1, level, 1500)
    s = len(t) - 1
    path = tmp_path / "deep.idx"
    save_index(Grammar(table=t, start=s, rounds=2 * 1499, seed=0, text_len=1500), str(path))
    g = load_index(str(path))
    assert g.expand(g.start) == "a" + "b" * 1499
    assert g.expand(g.start) == "".join(g.expand(s) for s in level_string(g, 0).symbols)


def _write_index(path, fields, arg0, arg1, level):
    """Write header ``fields`` and int32/uint16 columns as an index file."""
    m = len(level)
    head = "RLSLP1 " + " ".join(f"{k}={v}" for k, v in fields.items())
    path.write_bytes(head.encode("ascii") + b"\n" + struct.pack(f"<{m}i", *arg0)
                     + struct.pack(f"<{m}i", *arg1) + struct.pack(f"<{m}H", *level))
    return path


def _v2_index(tmp_path, edit, text="abracadabraabracadabra"):
    """The index of ``text`` (seed 0), version 2, with its header fields and
    its ``arg0``/``arg1``/``level`` columns passed through ``edit(fields,
    arg0, arg1, level)`` and written back."""
    path = _build_index(tmp_path, text)
    head, _, payload = path.read_bytes().partition(b"\n")
    fields = dict(item.split("=") for item in head.decode("ascii").split()[1:])
    n = int(fields["symbols"])
    arg0 = list(struct.unpack_from(f"<{n}i", payload))
    arg1 = list(struct.unpack_from(f"<{n}i", payload, 4 * n))
    level = list(struct.unpack_from(f"<{n}H", payload, 8 * n))
    edit(fields, arg0, arg1, level)
    return _write_index(path, fields, arg0, arg1, level)


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


def _together(*edits):
    def edit(*args):
        for one in edits:
            one(*args)
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
    (_set("arg0", 0, -5), "invalid symbol 0: codepoint -5 outside"),
    (_append((97, 0, 0)), "duplicate symbol 20"),
    (_append((2, 0, 2)), "duplicate symbol 20"),
    (_append((0, 2, 1)), "duplicate symbol 20"),
    (_append((2, 0, 4)), "duplicate symbol 20"),
    # symbol 7 repeats symbol 6 and symbol 12 names a later child: the lower id
    (_together(_set("arg0", 7, 2), _set("arg1", 12, 13)), "^duplicate symbol 7$"),
    (lambda fields, *cols: fields.update(text_len="21"),
     "invalid symbol 19: expansion length 22 exceeds text_len 21"),
    (lambda fields, *cols: fields.update(symbols="21"), "payload of 200 bytes"),
    (lambda fields, *cols: fields.update(symbols="19"), "payload of 200 bytes"),
    (lambda fields, *cols: fields.update(version="3"), "unsupported version 3"),
], ids=["pair-forward-child", "pair-negative-child", "power-forward-base",
        "equal-pair-children", "exponent-1", "level-not-above-child", "terminal-arg1",
        "codepoint-out-of-range", "negative-codepoint", "repeated-terminal", "repeated-pair",
        "repeated-power", "repeated-pair-at-another-level",
        "repeated-pair-before-forward-child", "text_len-below-expansion", "symbols-plus-one",
        "symbols-minus-one", "version-3"])
def test_load_v2_rejects_bad_record(tmp_path, capsys, edit, match):
    _assert_rejected(_v2_index(tmp_path, edit), match, capsys)


def test_load_rejects_chained_powers(tmp_path, capsys):
    # a^(2^31-1), raised to 2^31-1 twice more; the bound stops the chain at
    # its first power, before the expansion lengths grow
    big = (1 << 31) - 1
    fields = {"version": 2, "seed": 0, "rounds": 5, "text_len": 5, "symbols": 4, "start": 3}
    path = _write_index(tmp_path / "chain.idx", fields, [97, 0, 1, 2], [0, big, big, big],
                        [0, 1, 3, 5])
    _assert_rejected(path, f"^invalid symbol 1: expansion length {big} exceeds text_len 5$",
                     capsys)


def _load_outcome(path):
    """The loaded columns and header fields of the index at ``path``, or the
    message it is rejected with."""
    try:
        g = load_index(str(path))
    except IndexFormatError as exc:
        return str(exc)
    t = g.table
    return t.arg0, t.arg1, t.level, t.explen, g.start, g.rounds, g.seed, g.text_len


def _one_fault_edits(fields, arg0, arg1, level):
    """Edits of one value each: every column entry moved to nearby and extreme
    values, a record overwritten by an earlier one, every header field moved,
    and every record appended again, at its level and at another."""
    edits = []
    n = len(level)
    for sid in range(n):
        for col, vals in (("arg0", arg0), ("arg1", arg1)):
            for v in sorted({-1, 0, 1, 2, sid - 1, sid, sid + 1, vals[sid] - 1, vals[sid] + 1,
                             0x110000, (1 << 31) - 1}):
                edits.append(("col", col, sid, v))
        for v in sorted({0, 1, 2, level[sid] - 1, level[sid] + 1, level[sid] + 2, 65535}):
            if 0 <= v <= 65535:
                edits.append(("col", "level", sid, v))
        for earlier in range(sid):
            edits.append(("copy", earlier, sid))
        edits.append(("append", sid, 0))
        edits.append(("append", sid, 2))
    for key, val in fields.items():
        for v in sorted({val - 1, val + 1, 0, -1}):
            edits.append(("header", key, v))
    return edits


def _apply(edit, fields, arg0, arg1, level):
    cols = {"arg0": arg0, "arg1": arg1, "level": level}
    if edit[0] == "col":
        cols[edit[1]][edit[2]] = edit[3]
    elif edit[0] == "copy":
        for col in cols.values():
            col[edit[2]] = col[edit[1]]
    elif edit[0] == "append":
        sid, lift = edit[1], edit[2]
        arg0.append(arg0[sid])
        arg1.append(arg1[sid])
        level.append(min(level[sid] + lift, 65535))
        fields["symbols"] += 1
    else:
        fields[edit[1]] = edit[2]


def test_loaders_agree(tmp_path, monkeypatch):
    # from_columns against the per-record reference loop, through load_index:
    # the same message for every rejected file, the same table for the rest,
    # under one, two and three faults at once
    rng = random.Random(7)
    path = tmp_path / "edit.idx"
    runs = rejected = 0
    for text, seed in text_corpus(8, 24, seed=3):
        g = build(text, seed)
        t = g.table
        fields = {"version": 2, "seed": g.seed, "rounds": g.rounds, "text_len": g.text_len,
                  "symbols": len(t), "start": g.start}
        cols = (t.arg0, t.arg1, t.level)
        singles = _one_fault_edits(fields, *cols)
        plans = [[]] + [[e] for e in singles]
        plans += [rng.sample(singles, 2) for _ in range(len(singles) // 2)]
        plans += [rng.sample(singles, 3) for _ in range(len(singles) // 2)]
        for plan in plans:
            f, a0, a1, lv = dict(fields), *(list(col) for col in cols)
            for edit in plan:
                _apply(edit, f, a0, a1, lv)
            if (min(a0 + a1, default=0) < -(1 << 31) or max(a0 + a1, default=0) >= 1 << 31
                    or any(not 0 <= x <= 65535 for x in lv)):
                continue  # not writable in int32 / uint16 columns
            _write_index(path, f, a0, a1, lv)
            new = _load_outcome(path)
            with monkeypatch.context() as m:
                m.setattr(SymbolTable, "from_columns", staticmethod(ref_from_columns))
                ref = _load_outcome(path)
            assert new == ref, (text, seed, plan)
            runs += 1
            rejected += isinstance(new, str)
    assert 0 < rejected < runs


@pytest.mark.parametrize("field, value, message", [
    ("rounds", "1", "rounds=1 does not match the start symbol's level 34"),
    ("start", "20", "start symbol out of range"),
    ("text_len", "23", "text_len does not match the start symbol expansion"),
], ids=["rounds", "start-past-table", "text_len-off-by-one"])
def test_load_rejects_rounds_other_than_start_level(tmp_path, capsys, field, value, message):
    # the header's rounds, start and text_len must agree with the start
    # symbol of the table (20 symbols, the start of level 34 and explen 22)
    path = _v2_index(tmp_path, lambda fields, *cols: fields.update({field: value}))
    _assert_rejected(path, f"^{message}$", capsys)


def test_load_rejects_seed_out_of_range(tmp_path, capsys):
    for seed in (-1, 1 << 64):
        path = _v2_index(tmp_path, lambda fields, *cols: fields.update(seed=str(seed)))
        _assert_rejected(path, "outside", capsys)


def test_load_rejects_version_1(tmp_path, capsys):
    # the retired one-line-per-symbol format of the index of "a"
    path = tmp_path / "v1.idx"
    path.write_text("RLSLP1 version=1 seed=0 rounds=0 text_len=1 symbols=1 start=0\n0 T 97\n")
    _assert_rejected(path, "^unsupported version 1$", capsys)
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--index", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unsupported version 1\n" and captured.out == ""


def test_highest_pair_level_roundtrips(tmp_path, capsys):
    # the start pair of "ab" and the header's rounds moved to 65534, the
    # highest even level the uint16 level column holds
    def edit(fields, arg0, arg1, level):
        fields["rounds"] = "65534"
        level[int(fields["start"])] = 65534
    g = load_index(str(_v2_index(tmp_path, edit, "ab")))
    save_index(g, str(tmp_path / "again.idx"))
    g2 = load_index(str(tmp_path / "again.idx"))
    assert g2.rounds == 65534 and g2.table.level == g.table.level
    capsys.readouterr()
    assert main(["query", "--index", str(tmp_path / "again.idx"), "lce", "0", "1"]) == 0
    assert capsys.readouterr().out == "0\n"


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
    variants.append(data.replace(b" version=2 ", b" version=1 ", 1))  # a retired version
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


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(41)
    for trial in range(30):
        text = random_text(rng, 200, ALPHABETS[trial % len(ALPHABETS)])
        g = build(text, trial)
        first, again = tmp_path / f"{trial}.idx", tmp_path / f"{trial}.again"
        save_index(g, str(first))
        g2 = load_index(str(first))
        for name in ("arg0", "arg1", "level", "explen"):
            assert getattr(g2.table, name) == getattr(g.table, name)
        assert (g2.start, g2.rounds, g2.seed, g2.text_len) == \
            (g.start, g.rounds, g.seed, g.text_len)
        save_index(g2, str(again))
        assert again.read_bytes() == first.read_bytes()


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
    # the four columns and the descent-frontier cache, empty until a query
    assert SymbolTable.__slots__ == ("arg0", "arg1", "level", "explen", "frontiers")
    assert t.frontiers == {}
    # the query loops index these columns; a list reads faster than an array
    for name in ("arg0", "arg1", "level", "explen"):
        col = getattr(t, name)
        assert type(col) is list and len(col) == len(t), name


def test_oracle_runs_on_loaded_grammars(tmp_path):
    rng = random.Random(23)
    for trial in range(30):
        text = random_text(rng, 200, ALPHABETS[trial % len(ALPHABETS)])
        g = build(text, trial)
        path = tmp_path / f"o{trial}.idx"
        save_index(g, str(path))
        g2 = load_index(str(path))
        # the oracle reads the table alone: a header with another seed
        # loads a grammar it answers the same on
        head, body = path.read_bytes().split(b"\n", 1)
        head = head.replace(b"seed=%d " % g.seed, b"seed=%d " % (g.seed + 1000 + trial))
        path.write_bytes(head + b"\n" + body)
        g3 = load_index(str(path))
        assert g3.seed != g.seed
        n = len(text)
        for _ in range(10):
            x = rng.randrange(n)
            x2 = rng.randint(x + 1, n)
            want = naive_pseq_levels(g, x, x2)
            assert naive_pseq_levels(g2, x, x2) == want
            assert naive_pseq_levels(g3, x, x2) == want


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
