import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rlslp
from rlslp.builder import (
    _SLICE,
    SEED_TRIES,
    LevelString,
    _coins,
    build,
    draw_partition,
    level_string,
    round_cap,
    shrink_pc,
    shrink_rle,
)
from rlslp.errors import BadLevelError, EmptyTextError
from rlslp.grammar import PAIR, POWER, TERMINAL, Grammar, SymbolTable

from helpers import ref_coin, ref_shrink_pc, ref_shrink_rle, terminal_columns, text_corpus


def _records(cols, first):
    """The ``(arg0, arg1, level)`` records in ``cols`` from id ``first`` on."""
    return list(zip(*cols))[first:]


def test_shrink_rle_groups_maximal_runs():
    cols, (a, b) = terminal_columns("ab")
    out = shrink_rle(LevelString(0, [a, a, a, b]), *cols)
    assert out.symbols == [2, b]
    assert _records(cols, 2) == [(a, 3, 1)]


def test_shrink_rle_no_runs_unchanged():
    cols, (a, b) = terminal_columns("ab")
    out = shrink_rle(LevelString(0, [a, b, a]), *cols)
    assert out.symbols == [a, b, a]
    assert _records(cols, 2) == []


def test_shrink_rle_mixed():
    # a run repeated in one round gets one id
    cols, (a, b) = terminal_columns("ab")
    out = shrink_rle(LevelString(0, [a, a, b, b, b, a, a, b]), *cols)
    assert out.symbols == [2, 3, 2, b]
    assert _records(cols, 2) == [(a, 2, 1), (b, 3, 1)]


def test_shrink_rounds_have_their_parity():
    cols, (a, b) = terminal_columns("ab")
    with pytest.raises(BadLevelError):
        shrink_rle(LevelString(1, [a, a, b]), *cols)
    with pytest.raises(BadLevelError):
        shrink_pc(LevelString(0, [a, b]), {a}, *cols)
    assert _records(cols, 2) == []


def test_shrink_pc_single_pair():
    cols, (a, b) = terminal_columns("ab")
    out = shrink_pc(LevelString(1, [a, b]), {a}, *cols)
    assert out.symbols == [2]
    assert _records(cols, 2) == [(a, b, 2)]


def test_shrink_pc_wrong_orientation_unchanged():
    cols, (a, b) = terminal_columns("ab")
    out = shrink_pc(LevelString(1, [a, b]), {b}, *cols)
    assert out.symbols == [a, b]
    assert _records(cols, 2) == []


def test_shrink_pc_greedy_left_to_right():
    cols, (a, b) = terminal_columns("ab")
    out = shrink_pc(LevelString(1, [a, b, a, b, a]), {a}, *cols)
    assert out.symbols == [2, 2, a]
    assert _records(cols, 2) == [(a, b, 2)]


def test_shrinks_of_the_empty_string():
    # an empty string one level up, with nothing read or made
    cols, (a,) = terminal_columns("a")
    assert shrink_rle(LevelString(0, []), *cols) == LevelString(1, [])
    assert shrink_pc(LevelString(1, []), {a}, *cols) == LevelString(2, [])
    assert _records(cols, 1) == []


def test_shrinks_pass_one_symbol_through():
    cols, (a,) = terminal_columns("a")
    assert shrink_rle(LevelString(0, [a]), *cols) == LevelString(1, [a])
    for left in ({a}, set()):
        assert shrink_pc(LevelString(1, [a]), left, *cols) == LevelString(2, [a])
    assert _records(cols, 1) == []


def _fresh_columns(letters):
    return terminal_columns(letters)[0], terminal_columns(letters)[0]


def _shrink_both(s, left, columns):
    """``s`` one level up by the builder's shrink on ``columns[0]`` and by
    the reference on ``columns[1]``, a pair round when ``left`` is given; the
    outputs and the columns afterwards must be equal."""
    new, ref = columns
    if left is None:
        out, want = shrink_rle(s, *new), ref_shrink_rle(s, *ref)
    else:
        out, want = shrink_pc(s, left, *new), ref_shrink_pc(s, left, *ref)
    assert out == want
    assert new == ref
    return out


def test_shrinks_match_reference_on_builds():
    # every round of a build, replayed under its coins by both shrinks from
    # two fresh sets of columns: the level strings, the records and their
    # ids agree, and the columns end as the built table's (build runs last,
    # so a broken shrink fails here rather than in build's seed retries)
    for text, seed in text_corpus(48, 256, seed=23):
        letters = list(dict.fromkeys(text))
        columns = _fresh_columns(letters)
        s = LevelString(0, [letters.index(ch) for ch in text])
        while len(s.symbols) > 1 and s.level < round_cap(len(text)):
            s = _shrink_both(s, draw_partition(s, seed) if s.level % 2 else None, columns)
        g = build(text, seed)
        assert (g.seed, g.rounds, g.start) == (seed, s.level, s.symbols[0])
        assert columns[0] == (g.table.arg0, g.table.arg1, g.table.level)


@pytest.mark.parametrize("word, left", [
    ("", "ab"),        # empty
    ("a", "a"),        # one left symbol, held to the end
    ("a", ""),         # one right symbol
    ("abb", "b"),      # a run, and a held left symbol, at the very end
    ("aab", "a"),      # two left symbols before a right one
    ("abab", "ab"),    # all left
    ("abab", ""),      # all right
    ("ababa", "a"),    # alternating, starting and ending left
    ("babab", "a"),    # alternating, starting and ending right
    ("aabbbcaa", "ac"),
])
def test_shrinks_match_reference_on_crafted_strings(word, left):
    columns = _fresh_columns("abc")
    ids = dict(zip("abc", range(3)))
    syms = [ids[ch] for ch in word]
    _shrink_both(LevelString(0, syms), None, columns)
    _shrink_both(LevelString(1, syms), {ids[ch] for ch in left}, columns)


def _shrink_build(text, left_of):
    """The columns of ``text`` built by ``shrink_rle`` and ``shrink_pc``,
    each pair round taking ``left_of(s)`` as its left set, with no round cap."""
    letters = list(dict.fromkeys(text))
    cols, _ = terminal_columns(letters)
    s = LevelString(0, [letters.index(ch) for ch in text])
    while len(s.symbols) > 1:
        s = shrink_pc(s, left_of(s), *cols) if s.level % 2 else shrink_rle(s, *cols)
    return cols


def test_no_production_is_made_twice():
    # a round merges every adjacency it can, so no later round makes one of
    # its productions again and one dict per round hash-conses a whole
    # build: from_columns, which rejects a production repeated under a new
    # id as "duplicate symbol", loads the columns of shrink-only builds,
    # whatever the left sets (build itself ends with from_columns)
    rng = random.Random(24)

    def coin(s):
        return {a for a in dict.fromkeys(s.symbols) if rng.random() < 0.5}

    def rank_parity(s):
        return set(list(dict.fromkeys(s.symbols))[0::2])

    for text, seed in text_corpus(120, 256, seed=24):
        build(text, seed)
        for cols in (_shrink_build(text, coin), _shrink_build(text, rank_parity)):
            SymbolTable.from_columns(*cols, len(text))


def test_draw_partition_pinned_and_deterministic():
    _, (a, b, c) = terminal_columns("abc")
    s = LevelString(1, [a, b, c, a, b, c])
    assert draw_partition(s, 42) == draw_partition(s, 42) == {a, c}


def test_draw_partition_single_symbol():
    _, (a,) = terminal_columns("a")
    assert draw_partition(LevelString(1, [a, a, a]), 7) == {a}


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, random.Random(19).getrandbits(64)])
def test_coins_match_reference(seed):
    # every lane of a packed pass, on both sides of a slice boundary, is the
    # coin the one-rank reference draws; a lane that bleeds into its
    # neighbour flips some of them
    for level in (2, 3, 64, 65534):
        for d in (0, 1, 2, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 3):
            assert _coins(seed, level, d) == bytes(ref_coin(seed, level, r) for r in range(d))


def test_draw_partition_matches_reference():
    for text, seed in text_corpus(40, 256, seed=19):
        g = build(text, seed)
        for k in range(g.rounds + 1):
            s = level_string(g, k)
            ref = {sym for rank, sym in enumerate(dict.fromkeys(s.symbols))
                   if ref_coin(g.seed, k + 1, rank)}
            assert draw_partition(s, g.seed) == ref


def test_build_single_char():
    g = build("a", 123)
    assert g.rounds == 0
    assert g.table.kind[g.start] == TERMINAL
    assert g.text_len == 1


def test_build_single_run():
    g = build("aa", 5)
    assert g.rounds == 1
    assert g.table.kind[g.start] == POWER


def test_build_empty_text_rejected():
    with pytest.raises(EmptyTextError):
        build("", 0)


def test_build_expansion_identity():
    g = build("abab", 1)
    assert g.expand(g.start) == "abab"


def test_build_deterministic():
    a = build("mississippi" * 3, 9)
    b = build("mississippi" * 3, 9)
    assert a.seed == b.seed and a.rounds == b.rounds and a.start == b.start
    ta, tb = a.table, b.table
    assert (ta.kind, ta.arg0, ta.arg1, ta.level, ta.explen) == \
           (tb.kind, tb.arg0, tb.arg1, tb.level, tb.explen)


def test_level_parity():
    # a symbol's kind is its level's parity: from_columns reads the record
    # (a, 2) as the power a^2 on an odd level and as the pair ac on an even one
    cols, (a, b, c) = terminal_columns("abc")
    for lv, kind, word in ((1, POWER, "aa"), (2, PAIR, "ac"), (3, POWER, "aa"), (4, PAIR, "ac")):
        t = SymbolTable.from_columns(cols[0] + [a], cols[1] + [2], cols[2] + [lv], 2)
        g = Grammar(table=t, start=3, rounds=lv, seed=0, text_len=2)
        assert (t.kind[3], g.expand(3)) == (kind, word)


def test_level_string_endpoints():
    g = build("abcabc", 2)
    t0 = level_string(g, 0)
    assert [g.expand(s) for s in t0.symbols] == list("abcabc")
    tr = level_string(g, g.rounds)
    assert tr.symbols == [g.start]
    with pytest.raises(BadLevelError):
        level_string(g, g.rounds + 1)
    with pytest.raises(BadLevelError):
        level_string(g, -1)


@given(st.text(alphabet="ab", min_size=1, max_size=256), st.integers(0, 2**20))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_expansion_preserved_at_every_level(text, seed):
    g = build(text, seed)
    for k in range(g.rounds + 1):
        lvl = level_string(g, k)
        assert "".join(g.expand(s) for s in lvl.symbols) == text
        assert all(g.table.level[s] <= k for s in lvl.symbols)


def test_length_monotone_and_rle_leaves_no_runs():
    for text, seed in text_corpus(24, 128, seed=11):
        g = build(text, seed)
        prev = None
        for k in range(g.rounds + 1):
            cur = level_string(g, k).symbols
            if prev is not None:
                assert len(cur) <= len(prev)
            if k % 2 == 1:
                assert all(cur[i] != cur[i + 1] for i in range(len(cur) - 1))
            prev = cur


def test_local_consistency_small_corpus():
    # symbols occurring in one level string expand injectively
    for text, seed in text_corpus(20, 256, seed=13):
        g = build(text, seed)
        for k in range(g.rounds + 1):
            by_expansion = {}
            for s in set(level_string(g, k).symbols):
                e = g.expand(s)
                assert by_expansion.setdefault(e, s) == s
            # and conversely: equal symbols trivially expand equally


def test_round_cap_respected():
    for text, seed in text_corpus(12, 200, seed=17):
        g = build(text, seed)
        assert g.rounds <= round_cap(len(text))


_FAULTY_SHRINK = """
import rlslp.builder as builder
from rlslp.errors import InternalInvariantError

real_rle = builder.shrink_rle

def shrink_rle(s, *cols):  # ends with FLUSHES copies of its last symbol
    out = real_rle(s, *cols).symbols
    return builder.LevelString(s.level + 1, out[:-1] + out[-1:] * FLUSHES)

def shrink_pc(s, left, *cols):  # merges nothing
    return builder.LevelString(s.level + 1, list(s.symbols))

builder.SHRINK = SHRINK
try:
    builder.build(TEXT, 0)
except InternalInvariantError as exc:
    print(exc)
"""


@pytest.mark.parametrize("shrink, flushes, text, message", [
    ("shrink_rle", 0, "aaaa", "round 1 left an empty string"),
    ("shrink_rle", 2, "ab", "round 1 lengthened the string from 2 to 3 symbols"),
    ("shrink_pc", 1, "ab", f"no seed of 0 to {SEED_TRIES - 1} left one symbol within 48 rounds"),
], ids=["lost-run", "doubled-run", "no-progress"])
def test_empty_round_raises_instead_of_retrying(shrink, flushes, text, message):
    # a shrink that loses its last run empties the string of "aaaa" in round
    # 1, one that emits it twice lengthens "ab", and a pair shrink that
    # merges nothing keeps "ab" two symbols long under every seed; build must
    # raise, not retry seeds forever.  The probe runs in its own process with
    # a timeout, so a hang fails the test.
    src = Path(rlslp.__file__).parent.parent
    probe = (_FAULTY_SHRINK.replace("SHRINK", shrink).replace("FLUSHES", str(flushes))
             .replace("TEXT", repr(text)))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == message + "\n"
