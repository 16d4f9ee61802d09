"""Brute-force reference implementations used by tests and the selftest command.

These recompute query answers by direct definition on plain strings and on
materialized level strings.  They share no logic with the query layer or
the builder: they read the grammar's table alone, the level strings as
``below`` walks of the start symbol and each round's merge sets as the
children of that round's symbols.  All oracles are quadratic or worse and
refuse texts longer than 512 characters.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby

from .errors import InternalInvariantError, OutOfRangeError, UnknownSymbolError
from .grammar import Grammar, Record

_ORACLE_CAP = 512


def _check_fragment(n: int, i: int, j: int) -> None:
    if not (0 <= i <= j <= n):
        raise OutOfRangeError(f"fragment [{i}, {j}) outside [0, {n})")


def _check_grammar_fragment(g: Grammar, i: int, j: int) -> None:
    if g.text_len > _ORACLE_CAP:
        raise OutOfRangeError(f"oracle capped at texts of length {_ORACLE_CAP}")
    _check_fragment(g.text_len, i, j)
    if i >= j:
        raise OutOfRangeError(f"empty fragment [{i}, {j})")


def naive_occ(text: str, x: int, x2: int, y: int, y2: int) -> list[int]:
    """All p with text[p:p+|X|] == text[x:x2] and [p, p+|X|) inside [y, y2)."""
    n = len(text)
    _check_fragment(n, x, x2)
    _check_fragment(n, y, y2)
    pat = text[x:x2]
    m = len(pat)
    if m == 0:
        raise OutOfRangeError("empty pattern fragment")
    return [p for p in range(y, y2 - m + 1) if text[p:p + m] == pat]


def naive_rle_match(pattern, seq) -> list[int]:
    """All symbol offsets where the run-length encoded ``pattern`` occurs in
    ``seq``, by sliding over both decoded symbol strings."""
    p = [sym for sym, e in pattern for _ in range(e)]
    s = [sym for sym, e in seq for _ in range(e)]
    return [i for i in range(len(s) - len(p) + 1) if s[i:i + len(p)] == p]


def naive_lce(text: str, i: int, i2: int) -> int:
    n = len(text)
    if not (0 <= i <= n and 0 <= i2 <= n):
        raise OutOfRangeError(f"positions ({i}, {i2}) outside [0, {n}]")
    d = 0
    while i + d < n and i2 + d < n and text[i + d] == text[i2 + d]:
        d += 1
    return d


def naive_rev_lce(text: str, i: int, i2: int) -> int:
    n = len(text)
    if not (0 <= i <= n and 0 <= i2 <= n):
        raise OutOfRangeError(f"positions ({i}, {i2}) outside [0, {n}]")
    d = 0
    while d < i and d < i2 and text[i - d - 1] == text[i2 - d - 1]:
        d += 1
    return d


class NaivePopped(Record):
    """Levelwise popped decomposition computed by direct simulation.

    xbar[k], left[k], right[k] are plain symbol-id lists; q is the last
    level with a non-empty xbar; proxy_level is the proxy level
    max{k : len(xbar[k]) > k}.
    """

    __slots__ = ("xbar", "left", "right", "q", "proxy_level")


def _blocks(seq: list[int], k: int, first: set[int], second: set[int]) -> list[tuple[int, int]]:
    """Block decomposition (index ranges) of a symbol string with respect to
    shrink round k: on odd rounds x x is inside a block iff x is in ``first``
    (the bases of round k's powers), on even rounds x y iff x is in ``first``
    and y in ``second`` (the left and the right children of its pairs)."""
    out = []
    start = 0
    for i in range(len(seq) - 1):
        x, y = seq[i], seq[i + 1]
        if not (x in first and (x == y if k & 1 else y in second)):
            out.append((start, i + 1))
            start = i + 1
    out.append((start, len(seq)))
    return out


def naive_pseq_levels(g: Grammar, x: int, x2: int) -> NaivePopped:
    """Simulate the popped-sequence definition on materialized level strings.

    Round k's merge sets are read off the table: a run round's are the bases
    of its powers, a pair round's the left and the right children of its
    pairs.  Nothing else of how the grammar was built is used, so any
    recompression grammar has this oracle.  On a builder grammar these are
    the coin's blocks.  Every adjacency x y of a popped fragment at level k
    is one of the level string T_k, and the builder merges every run and
    every left-right adjacency of T_k.  So x x merges there iff x is a base
    of a round-(k+1) power, and x y iff x is a left and y a right child of
    round-(k+1) pairs: those children are coin-left and coin-right.
    """
    _check_grammar_fragment(g, x, x2)
    t = g.table
    # (level parity, arg0, arg1) -> id of the pair (parity 0) or the power (1)
    ids = {}
    # round -> its merge sets, as ``_blocks`` reads them
    merges: defaultdict[int, tuple[set[int], set[int]]] = defaultdict(lambda: (set(), set()))
    for sid, (lv, b, c) in enumerate(zip(t.level, t.arg0, t.arg1)):
        if lv:
            ids[lv & 1, b, c] = sid
            first, second = merges[lv]
            first.add(b)
            if not lv & 1:
                second.add(c)
    xbar = [t.below(g.start, 0)[x:x2]]
    lefts: list[list[int]] = []
    rights: list[list[int]] = []
    k = 0
    while True:
        cur = xbar[k]
        shrink_round = k + 1
        blocks = _blocks(cur, shrink_round, *merges[shrink_round])

        def popped(block: tuple[int, int]) -> list[int]:
            lo, hi = block  # a boundary block is popped unless it has two distinct symbols
            return cur[lo:hi] if len(set(cur[lo:hi])) == 1 else []

        left = popped(blocks[0])
        right = popped(blocks[-1]) if len(blocks) > 1 else []
        lefts.append(left)
        rights.append(right)
        # block boundaries are local: the middle's blocks are the inner blocks of cur's
        inner = blocks[bool(left):len(blocks) - bool(right)]
        nxt: list[int] = []
        for b_lo, b_hi in inner:
            size = b_hi - b_lo
            if size == 1:
                nxt.append(cur[b_lo])
                continue
            if shrink_round % 2 == 1:
                key = (1, cur[b_lo], size)
            elif size == 2:
                key = (0, cur[b_lo], cur[b_lo + 1])
            else:
                raise InternalInvariantError(f"pair block of {size} symbols")
            if key not in ids:
                raise UnknownSymbolError(f"no symbol for block {key}")
            nxt.append(ids[key])
        if not nxt:
            q = k
            break
        xbar.append(nxt)
        k += 1
        if k > g.rounds + 1:
            raise InternalInvariantError("popped sequence exceeded the round count")

    proxy_level = max(k for k in range(q + 1) if len(xbar[k]) > k)
    return NaivePopped(xbar=xbar, left=lefts, right=rights, q=q, proxy_level=proxy_level)


def naive_proxy_text(g: Grammar, y: int, y2: int, pp) -> tuple[tuple, int, int, int]:
    """The proxy window of ``ipm.proxy_text`` on the materialized level string.

    Takes the level-(level+1) blocks within 2*level+2 of the block holding
    the middle position m of Y, expands them one level down, and keeps the
    symbols within sym_len+level-1 of m's level-``level`` symbol whose
    expansions lie inside [y, y2).  Returns ``(rle, text_start, exp_len,
    sym_len)``, with text_start == y for an empty window.
    """
    _check_grammar_fragment(g, y, y2)
    t = g.table
    level = pp.level
    # above the last round the level string is the start symbol alone
    upper = t.below(g.start, min(level + 1, g.rounds))
    starts = [0]
    for s in upper:
        starts.append(starts[-1] + t.explen[s])
    m = y + (y2 - y) // 2
    mb = next(i for i in range(len(upper)) if starts[i] <= m < starts[i + 1])
    radius = 2 * level + 2
    syms: list[tuple[int, int]] = []  # (level-`level` symbol, text start)
    for i in range(max(0, mb - radius), min(len(upper), mb + radius + 1)):
        s, pos = upper[i], starts[i]
        if t.level[s] != level + 1:
            kids = [s]
        elif t.level[s] & 1:  # a power
            kids = [t.arg0[s]] * t.arg1[s]
        else:
            kids = [t.arg0[s], t.arg1[s]]
        for c in kids:
            syms.append((c, pos))
            pos += t.explen[c]
    mi = next(i for i, (s, pos) in enumerate(syms) if pos <= m < pos + t.explen[s])
    window = pp.sym_len + level - 1
    kept = [(s, pos) for i, (s, pos) in enumerate(syms)
            if abs(i - mi) <= window and y <= pos and pos + t.explen[s] <= y2]
    rle = [(sym, len(list(run))) for sym, run in groupby(s for s, _ in kept)]
    text_start = kept[0][1] if kept else y
    exp_len = sum(t.explen[s] for s, _ in kept)
    return tuple(rle), text_start, exp_len, len(kept)
