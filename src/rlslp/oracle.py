"""Brute-force reference implementations used by tests and the selftest command.

These recompute query answers by direct definition on plain strings and on
materialized level strings.  They share no logic with the query layer:
only the grammar tables, the level-string reconstruction, and the replayed
partitions are imported.  All oracles are quadratic or worse and refuse
texts longer than 512 characters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import LEFT, RIGHT, level_string, partition_for_level
from .errors import OutOfRangeError
from .grammar import POWER, Grammar

_ORACLE_CAP = 512


def _check_fragment(n: int, i: int, j: int) -> None:
    if not (0 <= i <= j <= n):
        raise OutOfRangeError(f"fragment [{i}, {j}) outside [0, {n})")


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


@dataclass
class NaivePopped:
    """Levelwise popped decomposition computed by direct simulation.

    xbar[k], left[k], right[k] are plain symbol-id lists; q is the last
    level with a non-empty xbar; proxy_level is the proxy level
    max{k : len(xbar[k]) > k}.
    """
    xbar: list[list[int]]
    left: list[list[int]]
    right: list[list[int]]
    q: int
    proxy_level: int


def _blocks(seq: list[int], k: int, classes: dict[int, str] | None) -> list[tuple[int, int]]:
    """Block decomposition (index ranges) of a standalone symbol string with
    respect to shrink round k: equal-adjacent runs on odd rounds, left/right
    pairs on even rounds."""
    n = len(seq)
    if n == 0:
        return []
    out = []
    start = 0
    for i in range(n - 1):
        if k % 2 == 1:
            boundary = seq[i] != seq[i + 1]
        else:
            boundary = not (classes[seq[i]] == LEFT and classes[seq[i + 1]] == RIGHT)
        if boundary:
            out.append((start, i + 1))
            start = i + 1
    out.append((start, n))
    return out


def naive_pseq_levels(g: Grammar, x: int, x2: int) -> NaivePopped:
    """Simulate the popped-sequence definition on materialized level strings."""
    assert g.text_len <= _ORACLE_CAP, "oracle capped at texts of length 512"
    _check_fragment(g.text_len, x, x2)
    assert x < x2
    t = g.table
    xbar = [level_string(g, 0).symbols[x:x2]]
    lefts: list[list[int]] = []
    rights: list[list[int]] = []
    k = 0
    while True:
        cur = xbar[k]
        shrink_round = k + 1
        classes = None
        if shrink_round % 2 == 0 and len(cur) > 1:
            classes = partition_for_level(g, shrink_round).classes
        blocks = _blocks(cur, shrink_round, classes)

        def two_distinct(block: tuple[int, int]) -> bool:
            lo, hi = block
            return len(set(cur[lo:hi])) >= 2

        if two_distinct(blocks[0]):
            left = []
            lo = 0
        else:
            lo, hi = blocks[0]
            left = cur[lo:hi]
            lo = hi
        if len(blocks) <= 1:
            right = []
            hi = len(cur)
        elif two_distinct(blocks[-1]):
            right = []
            hi = len(cur)
        else:
            b_lo, hi_end = blocks[-1]
            right = cur[b_lo:hi_end]
            hi = b_lo
        lefts.append(left)
        rights.append(right)

        middle = cur[lo:hi]
        nxt: list[int] = []
        for b_lo, b_hi in _blocks(middle, shrink_round, classes):
            size = b_hi - b_lo
            if size == 1:
                nxt.append(middle[b_lo])
            elif shrink_round % 2 == 1:
                nxt.append(t.find_power(middle[b_lo], size))
            else:
                assert size == 2
                nxt.append(t.find_pair(middle[b_lo], middle[b_lo + 1]))
        if not nxt:
            q = k
            break
        xbar.append(nxt)
        k += 1
        assert k <= g.rounds + 1

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
    assert g.text_len <= _ORACLE_CAP, "oracle capped at texts of length 512"
    _check_fragment(g.text_len, y, y2)
    assert y < y2
    t = g.table
    level = pp.level
    # above the last round the level string is the start symbol alone
    upper = level_string(g, min(level + 1, g.rounds)).symbols
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
        elif t.kind[s] == POWER:
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
    rle: list[tuple[int, int]] = []
    for s, _ in kept:
        if rle and rle[-1][0] == s:
            rle[-1] = (s, rle[-1][1] + 1)
        else:
            rle.append((s, 1))
    text_start = kept[0][1] if kept else y
    exp_len = sum(t.explen[s] for s, _ in kept)
    return tuple(rle), text_start, exp_len, len(kept)
