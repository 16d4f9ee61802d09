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
from rlslp.grammar import POWER, TERMINAL, SymbolTable

from helpers import ref_coin, ref_shrink_pc, ref_shrink_rle, terminal_table, text_corpus


def _records(t, first):
    """The ``(arg0, arg1, level)`` records of ``t`` from id ``first`` on."""
    return list(zip(t.arg0, t.arg1, t.level))[first:]


def test_shrink_rle_groups_maximal_runs():
    t, (a, b) = terminal_table("ab")
    out = shrink_rle(LevelString(0, [a, a, a, b]), t)
    assert out.symbols == [2, b]
    assert _records(t, 2) == [(a, 3, 1)]


def test_shrink_rle_no_runs_unchanged():
    t, (a, b) = terminal_table("ab")
    out = shrink_rle(LevelString(0, [a, b, a]), t)
    assert out.symbols == [a, b, a]
    assert len(t) == 2


def test_shrink_rle_mixed():
    # a run repeated in one round gets one id
    t, (a, b) = terminal_table("ab")
    out = shrink_rle(LevelString(0, [a, a, b, b, b, a, a, b]), t)
    assert out.symbols == [2, 3, 2, b]
    assert _records(t, 2) == [(a, 2, 1), (b, 3, 1)]


def test_shrink_rounds_have_their_parity():
    t, (a, b) = terminal_table("ab")
    with pytest.raises(BadLevelError):
        shrink_rle(LevelString(1, [a, a, b]), t)
    with pytest.raises(BadLevelError):
        shrink_pc(LevelString(0, [a, b]), {a}, t)
    assert len(t) == 2


def test_shrink_pc_single_pair():
    t, (a, b) = terminal_table("ab")
    out = shrink_pc(LevelString(1, [a, b]), {a}, t)
    assert out.symbols == [2]
    assert _records(t, 2) == [(a, b, 2)]


def test_shrink_pc_wrong_orientation_unchanged():
    t, (a, b) = terminal_table("ab")
    out = shrink_pc(LevelString(1, [a, b]), {b}, t)
    assert out.symbols == [a, b]
    assert len(t) == 2


def test_shrink_pc_greedy_left_to_right():
    t, (a, b) = terminal_table("ab")
    out = shrink_pc(LevelString(1, [a, b, a, b, a]), {a}, t)
    assert out.symbols == [2, 2, a]
    assert _records(t, 2) == [(a, b, 2)]


def test_shrinks_of_the_empty_string():
    # an empty string one level up, with nothing read or made
    t, (a,) = terminal_table("a")
    assert shrink_rle(LevelString(0, []), t) == LevelString(1, [])
    assert shrink_pc(LevelString(1, []), {a}, t) == LevelString(2, [])
    assert len(t) == 1


def test_shrinks_pass_one_symbol_through():
    t, (a,) = terminal_table("a")
    assert shrink_rle(LevelString(0, [a]), t) == LevelString(1, [a])
    for left in ({a}, set()):
        assert shrink_pc(LevelString(1, [a]), left, t) == LevelString(2, [a])
    assert len(t) == 1


def _table_state(t):
    return t.arg0, t.arg1, t.level, t.explen


def _fresh_tables(letters):
    return terminal_table(letters)[0], terminal_table(letters)[0]


def _shrink_both(s, left, tables):
    """``s`` one level up by the builder's shrink on ``tables[0]`` and by the
    reference on ``tables[1]``, a pair round when ``left`` is given; the
    outputs and the tables afterwards must be equal."""
    new, ref = tables
    if left is None:
        out, want = shrink_rle(s, new), ref_shrink_rle(s, ref)
    else:
        out, want = shrink_pc(s, left, new), ref_shrink_pc(s, left, ref)
    assert out == want
    assert _table_state(new) == _table_state(ref)
    return out


def test_shrinks_match_reference_on_builds():
    # every round of a build, replayed under its coins by both shrinks from
    # two fresh tables: the level strings, the symbols and their ids agree,
    # and the tables end as the built one (build runs last, so a broken
    # shrink fails here rather than in build's seed retries)
    for text, seed in text_corpus(48, 256, seed=23):
        letters = list(dict.fromkeys(text))
        tables = _fresh_tables(letters)
        s = LevelString(0, [letters.index(ch) for ch in text])
        while len(s.symbols) > 1 and s.level < round_cap(len(text)):
            s = _shrink_both(s, draw_partition(s, seed) if s.level % 2 else None, tables)
        g = build(text, seed)
        assert (g.seed, g.rounds, g.start) == (seed, s.level, s.symbols[0])
        assert _table_state(tables[0]) == _table_state(g.table)


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
    tables = _fresh_tables("abc")
    ids = dict(zip("abc", range(3)))
    syms = [ids[ch] for ch in word]
    _shrink_both(LevelString(0, syms), None, tables)
    _shrink_both(LevelString(1, syms), {ids[ch] for ch in left}, tables)


def _shrink_build(text, left_of):
    """The table of ``text`` built by ``shrink_rle`` and ``shrink_pc``, each
    pair round taking ``left_of(s)`` as its left set, with no round cap."""
    letters = list(dict.fromkeys(text))
    t, _ = terminal_table(letters)
    s = LevelString(0, [letters.index(ch) for ch in text])
    while len(s.symbols) > 1:
        s = shrink_pc(s, left_of(s), t) if s.level % 2 else shrink_rle(s, t)
    return t


def test_no_production_is_made_twice():
    # a round merges every adjacency it can, so no later round makes one of
    # its productions again and one dict per round hash-conses a whole
    # build: from_columns, which rejects a production repeated under a new
    # id as "duplicate symbol", loads every table, whatever the left sets
    rng = random.Random(24)

    def coin(s):
        return {a for a in dict.fromkeys(s.symbols) if rng.random() < 0.5}

    def rank_parity(s):
        return set(list(dict.fromkeys(s.symbols))[0::2])

    for text, seed in text_corpus(120, 256, seed=24):
        for t in (build(text, seed).table, _shrink_build(text, coin),
                  _shrink_build(text, rank_parity)):
            SymbolTable.from_columns(t.arg0, t.arg1, t.level, len(text))


def test_draw_partition_pinned_and_deterministic():
    _, (a, b, c) = terminal_table("abc")
    s = LevelString(1, [a, b, c, a, b, c])
    assert draw_partition(s, 42) == draw_partition(s, 42) == {a, c}


def test_draw_partition_single_symbol():
    _, (a,) = terminal_table("a")
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
    # a symbol's kind is its level's parity, so a pair on an odd level or a
    # power on an even one is rejected where records are appended
    for text, seed in text_corpus(16, 128, seed=5):
        t = build(text, seed).table
        n = len(t)
        odd = (max(t.level) + 2) | 1  # above every level, so parity is the only fault
        for add, args in ((t.add_pair, (0, n - 1, odd)), (t.add_power, (0, 99, odd + 1))):
            with pytest.raises(BadLevelError):
                add(*args)
            assert len(t) == n and len(t.arg0) == len(t.arg1) == len(t.explen) == n
        assert t.add_power(0, 99, odd) == n
        if n > 1:
            assert t.add_pair(0, n - 1, odd + 1) == n + 1


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

def shrink_rle(s, table):  # ends with FLUSHES copies of the final flush
    k = s.level + 1
    out = []
    it = iter(s.symbols)
    prev, e = next(it, None), 1
    for a in it:
        if a == prev:
            e += 1
        else:
            out.append(table.add_power(prev, e, k) if e > 1 else prev)
            prev, e = a, 1
    for _ in range(FLUSHES):
        out.append(table.add_power(prev, e, k) if e > 1 else prev)
    return builder.LevelString(k, out)

def shrink_pc(s, left, table):  # merges nothing
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
