"""Recompression grammar construction.

Builds an r-round grammar over a text by alternating two shrink passes,
each taking a level string one level up (round = level + 1): odd rounds
collapse maximal runs of equal adjacent symbols into power productions,
even rounds draw a random partition of the live symbols, the set of its
left symbols (every other symbol is right), and merge every left symbol
immediately followed by a right symbol into a pair production.  Rounds
repeat until the level string has length one; a round that changes nothing
still counts.  Each shrink is one pass that reads each symbol once.  The run
pass ends a run at the first unequal symbol.  The pair pass holds the last
left symbol until the next symbol decides it: a left one emits it alone, a
right one merges with it, the end of the string emits it alone.  That is the
left-to-right greedy scan, since a pair's right symbol is never left.

A build appends its records to three plain lists, the ``arg0``, ``arg1``
and ``level`` columns, and ends with ``SymbolTable.from_columns``: a built
grammar passes the check a loaded index passes, and a faulty record raises
``InternalInvariantError`` with the loader's message.  Hash-consing is per
round: each shrink keeps its round's productions in a dict of its own and
appends only a new one.  A round merges every run and every left symbol
followed by a right one, and a merge replaces only its children: children
of a round-k production adjacent after round k were adjacent before it, and
merged.  So no later round makes a production of round k again, and
``from_columns``'s duplicate check confirms it on every build.

The coin stream is a counter-based mix of (seed, round, first-occurrence
rank of the symbol): the coin of rank r in round k is bit 0 of
splitmix64(seed ^ splitmix64((k << 32) ^ r)), where splitmix64 is the
64-bit splitmix64 finalizer.  So the construction is bit-reproducible for a
fixed (text, seed) regardless of platform or interning order.  A round's
coins are drawn in one packed pass (``_coins``): each rank gets a 128-bit
lane of one Python int, and the finalizer's shifts, XORs and multiplies run
on all lanes at once.  The lanes are 128 bits so that the product of a
64-bit value and a 64-bit constant fits in its lane and never carries into
the next; an AND with a mask of every lane's low word clears what a shift
brings in from a neighbour before each multiply and each shift.  Both
``k < 2^32`` and ``r < 2^32`` hold (rounds are capped by ``round_cap``, and
an index stores levels in 16 bits), so ``(k << 32) ^ r`` fits in the low
word of its lane.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import compress

from .errors import BadLevelError, EmptyTextError, IndexFormatError, InternalInvariantError
from .grammar import Grammar, SymbolTable

_MASK64 = (1 << 64) - 1

# Retry cap on the round count; the expected round count is O(log n), so a
# build that exceeds this had pathologically unlucky coins and is restarted
# with the next chained seed.
def round_cap(n: int) -> int:
    return 8 * math.ceil(math.log2(n + 1)) + 32


# Seeds ``build`` tries before it raises.  A seed fails by chance only where
# ``round_cap`` leaves little slack: "ab" fails if all 24 pair rounds under its
# cap of 48 miss, each with probability 3/4, so with (3/4)^24 = 1.0e-3.  Over
# 20,000 seeds, ten texts of 2-16 letters failed at 0.15% at most; 2000 random
# texts and the benchmark's texts never did.  Eight in a row by chance: < 1e-21.
SEED_TRIES = 8


# Lanes per packed pass.  Drawing 70k coins took 18-20 ms in slices of 2048
# lanes, 41 ms in one unsliced pass (each big-int multiply and shift then
# runs over a far larger int) and 100-155 ms one rank at a time.
_SLICE = 2048


def _lanes(word: int, m: int) -> int:
    """``m`` 128-bit lanes, each holding the 64-bit ``word`` in its low word."""
    return int.from_bytes((word.to_bytes(8, "little") + bytes(8)) * m, "little")


def _mix_lanes(x: int, mask: int) -> int:
    """The splitmix64 finalizer on the low word of every lane of ``x``;
    ``mask`` is ``_lanes(2**64 - 1, m)``.  The high words of the result
    hold bits shifted in from the next lane."""
    x &= mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return x ^ (x >> 31)


def _coins(seed: int, level: int, d: int) -> bytes:
    """The coins of ranks 0..d-1 in round ``level``, one byte (0 or 1) each."""
    out = []
    base = level << 32
    for lo in range(0, d, _SLICE):
        m = min(_SLICE, d - lo)
        words = array("Q", bytes(16 * m))
        words[0::2] = array("Q", range(base + lo, base + lo + m))
        if sys.byteorder == "big":
            words.byteswap()
        mask = _lanes(_MASK64, m)
        x = _mix_lanes(_lanes(seed, m) ^ _mix_lanes(int.from_bytes(words, "little"), mask), mask)
        out.append((x & _lanes(1, m)).to_bytes(16 * m, "little")[0::16])
    return b"".join(out)


@dataclass
class LevelString:
    """The symbol sequence after ``level`` shrink rounds (level 0 = the text)."""
    level: int
    symbols: list[int]


def draw_partition(s: LevelString, seed: int) -> set[int]:
    """The left symbols of ``s``, each distinct symbol chosen by a fair coin.

    Symbols are ranked by first occurrence, and each gets an independent
    deterministic coin keyed by (seed, ``s.level + 1``, rank); the round's
    coins come from one ``_coins`` call.
    """
    distinct = dict.fromkeys(s.symbols)
    return set(compress(distinct, _coins(seed, s.level + 1, len(distinct))))


def _append(productions: dict[tuple[int, int], int], k: int, arg0: list[int], arg1: list[int],
            level: list[int]) -> None:
    """Append the records of round ``k``'s productions, the keys of
    ``productions`` in the order their ids were given, to the columns."""
    arg0.extend([b for b, _ in productions])
    arg1.extend([c for _, c in productions])
    level.extend([k] * len(productions))


def shrink_rle(s: LevelString, arg0: list[int], arg1: list[int],
               level: list[int]) -> LevelString:
    """Collapse maximal runs of equal adjacent symbols into powers, one level
    up, appending each new power's record to the columns."""
    k = s.level + 1
    if k % 2 == 0:
        raise BadLevelError(f"run compression after level {s.level}: needs an odd round")
    first = len(level)
    powers: dict[tuple[int, int], int] = {}  # this round's (base, exponent) -> id

    def power(b: int, m: int) -> int:
        sid = powers.get((b, m))
        if sid is None:
            sid = powers[b, m] = first + len(powers)
        return sid

    out: list[int] = []
    it = iter(s.symbols)
    prev, e = next(it, None), 1
    for a in it:
        if a == prev:
            e += 1
        else:
            out.append(power(prev, e) if e > 1 else prev)
            prev, e = a, 1
    if prev is not None:
        out.append(power(prev, e) if e > 1 else prev)
    _append(powers, k, arg0, arg1, level)
    return LevelString(k, out)


def shrink_pc(s: LevelString, left: set[int], arg0: list[int], arg1: list[int],
              level: list[int]) -> LevelString:
    """Merge every symbol in ``left`` followed by one outside it into a pair,
    one level up, holding the last left symbol as the module docstring says
    and appending each new pair's record to the columns."""
    k = s.level + 1
    if k % 2 == 1:
        raise BadLevelError(f"pair compression after level {s.level}: needs an even round")
    first = len(level)
    pairs: dict[tuple[int, int], int] = {}  # this round's (left, right) -> id
    out: list[int] = []
    held = None
    for a in s.symbols:
        if a in left:
            if held is not None:
                out.append(held)
            held = a
        elif held is not None:
            sid = pairs.get((held, a))
            if sid is None:
                sid = pairs[held, a] = first + len(pairs)
            out.append(sid)
            held = None
        else:
            out.append(a)
    if held is not None:
        out.append(held)
    _append(pairs, k, arg0, arg1, level)
    return LevelString(k, out)


def build(text: str, seed: int = 0) -> Grammar:
    """Build the grammar of ``text``; deterministic for a fixed (text, seed).

    A build past ``round_cap(len(text))`` rounds restarts with seed+1
    (chained), and the grammar records the seed used.  Its table is
    ``SymbolTable.from_columns`` of the records the rounds appended.  Only a
    faulty shrink makes ``SEED_TRIES`` seeds fail, a round empty or lengthen
    the string, or a record fail ``from_columns``'s check; each raises
    ``InternalInvariantError``, naming the seeds, the round or the symbol.
    """
    if len(text) == 0:
        raise EmptyTextError("cannot build a grammar for the empty text")
    n = len(text)
    cap = round_cap(n)
    use_seed = seed & _MASK64
    letters = dict.fromkeys(text)  # one terminal per letter, in first-occurrence order
    ids = dict(zip(letters, range(len(letters))))
    for _ in range(SEED_TRIES):
        arg0 = list(map(ord, letters))
        arg1 = [0] * len(letters)
        level = [0] * len(letters)
        cur = LevelString(0, list(map(ids.__getitem__, text)))
        while len(cur.symbols) > 1 and cur.level < cap:
            before = len(cur.symbols)
            if cur.level % 2 == 0:
                cur = shrink_rle(cur, arg0, arg1, level)
            else:
                cur = shrink_pc(cur, draw_partition(cur, use_seed), arg0, arg1, level)
            if not cur.symbols:
                raise InternalInvariantError(f"round {cur.level} left an empty string")
            if len(cur.symbols) > before:
                raise InternalInvariantError(f"round {cur.level} lengthened the string "
                                             f"from {before} to {len(cur.symbols)} symbols")
        if len(cur.symbols) == 1:
            try:
                table = SymbolTable.from_columns(arg0, arg1, level, n)
            except IndexFormatError as exc:
                raise InternalInvariantError(str(exc)) from exc
            return Grammar(table=table, start=cur.symbols[0], rounds=cur.level,
                           seed=use_seed, text_len=n)
        use_seed = (use_seed + 1) & _MASK64
    raise InternalInvariantError(f"no seed of {seed & _MASK64} to {(use_seed - 1) & _MASK64} "
                                 f"left one symbol within {cap} rounds")


def level_string(g: Grammar, k: int) -> LevelString:
    """The level-``k`` string, ``g.table.below(g.start, k)``: the start symbol
    expanded down to the symbols of level at most ``k``.

    Used by tests and perfbench; queries never materialize level strings.
    """
    if not (0 <= k <= g.rounds):
        raise BadLevelError(f"level {k} outside [0, {g.rounds}]")
    return LevelString(k, g.table.below(g.start, k))

