"""Internal pattern matching: all occurrences of fragment X inside fragment Y.

The query requires |Y| < 2|X|, which forces every occurrence of X to cover
the middle position of Y and makes the answer a single arithmetic
progression of start positions.  The pipeline:

1. Pop the pattern down to its proxy level: the deepest level where the
   shrunken pattern still has more symbols than its level number.
2. Cut a proxy window out of the text's level string around the middle of
   Y, just wide enough to contain the induced occurrence of every
   occurrence of X in Y.  The block walk behind it stops on each side at
   the first of: Y's end on that side, enough symbols for the trim width,
   or 2*level+2 blocks.
3. Match the two run-length encoded symbol sequences, producing O(1)
   candidate progressions.
4. Verify each progression with a constant number of LCE queries, using
   periodicity to accept or reject whole progressions at once.

Everything runs in O(r) node operations per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    EmptyFragmentError,
    EmptyPatternError,
    InternalInvariantError,
    OutOfRangeError,
    RatioViolationError,
)
from .extension import lce, rev_lce
from .grammar import POWER, Grammar
from .navigator import Navigator, leaf, step, up
from .popped import PoppedSeq, Run, pseq

# Bound on materializing positions while merging progressions whose shapes
# do not combine arithmetically; beyond this the merge is considered a bug.
_MERGE_MATERIALIZE_CAP = 1 << 18


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression start, start+diff, ..., count terms.

    count == 0 encodes the empty set; diff is normalized to 1 when
    count <= 1.
    """
    start: int
    diff: int
    count: int

    @staticmethod
    def of(start: int, diff: int, count: int) -> "Progression":
        if count <= 0:
            return EMPTY_PROGRESSION
        if count == 1:
            return Progression(start, 1, 1)
        return Progression(start, diff, count)

    @property
    def last(self) -> int:
        return self.start + (self.count - 1) * self.diff

    def positions(self) -> Iterator[int]:
        return iter(range(self.start, self.start + self.count * self.diff, self.diff))

    def __len__(self) -> int:
        return self.count


EMPTY_PROGRESSION = Progression(0, 1, 0)


@dataclass(frozen=True)
class ProxyPattern:
    """Run-length encoded stand-in for the pattern fragment at the proxy level.

    Its expansion equals X[left_off, right_cut); exp_len and sym_len are
    the expansion length and the symbol count of the encoded sequence.
    """
    level: int
    rle: tuple[Run, ...]
    left_off: int
    right_cut: int
    exp_len: int
    sym_len: int


@dataclass(frozen=True)
class ProxyText:
    """Run-length encoded window of the level string around the middle of Y.

    text_start is the text position of its expansion; sym_len == 0 encodes
    an empty window.
    """
    rle: tuple[Run, ...]
    text_start: int
    exp_len: int
    sym_len: int


def _exp_prefix(g: Grammar, runs: Sequence[Run], nsyms: int) -> int:
    """Expansion length of the first ``nsyms`` symbols of a run sequence."""
    explen = g.table.explen
    total = 0
    for sym, e in runs:
        if nsyms <= 0:
            break
        take = e if e < nsyms else nsyms
        total += take * explen[sym]
        nsyms -= take
    assert nsyms <= 0 or total == 0 and nsyms == 0
    return total


def proxy_pattern(g: Grammar, x: int, x2: int, nav: Navigator | None = None,
                  ps: PoppedSeq | None = None) -> ProxyPattern:
    """Compute the proxy level and the run-length encoding of the shrunken pattern.

    The level is found by sweeping the popped sequence from the deepest
    level downward, maintaining the symbol multiset size of the shrunken
    pattern in a bucket queue keyed by symbol level and stopping as soon as
    the size exceeds the level.
    """
    if x2 <= x:
        raise EmptyFragmentError("proxy pattern of an empty fragment")
    if ps is None:
        ps = pseq(g, x, x2, nav)
    t = g.table
    lvl = t.level
    kind = t.kind
    q = ps.q

    # ---- locate the proxy level ----
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(q + 2)]
    size = 0
    level = -1
    for k in range(q, -1, -1):
        if size > k:
            level = k
            break
        stop = False
        for run in (ps.left[k], ps.right[k]):
            if run is None:
                continue
            buckets[lvl[run.sym]].append(run)
            size += run.exponent
            if size > k:
                stop = True
                break
        if not stop:
            pending = buckets[k + 1]
            buckets[k + 1] = []
            while pending:
                sym, mult = pending.pop()
                size -= mult
                if kind[sym] == POWER:
                    b, m = t.arg0[sym], t.arg1[sym]
                    buckets[lvl[b]].append((b, m * mult))
                    size += m * mult
                else:
                    b, c = t.arg0[sym], t.arg1[sym]
                    buckets[lvl[b]].append((b, mult))
                    buckets[lvl[c]].append((c, mult))
                    size += 2 * mult
                if size > k:
                    stop = True
                    break
        if stop:
            level = k
            break
    assert level >= 0, "the level-0 multiset is the pattern itself and cannot be empty"

    # ---- materialize the level-(level+1) symbol sequence ----
    mid: list[Run] = []

    def emit(sym: int, mult: int) -> None:
        if lvl[sym] <= level + 1:
            mid.append(Run(sym, mult))
        elif kind[sym] == POWER:
            emit(t.arg0[sym], t.arg1[sym] * mult)
        else:
            for _ in range(mult):
                emit(t.arg0[sym], 1)
                emit(t.arg1[sym], 1)

    for k in range(level + 1, q + 1):
        run = ps.left[k]
        if run is not None:
            emit(run.sym, run.exponent)
    for k in range(q, level, -1):
        run = ps.right[k]
        if run is not None:
            emit(run.sym, run.exponent)
    assert sum(e for _, e in mid) <= level + 1

    # ---- expand one more level into the run-length encoding ----
    out: list[Run] = []

    def push(sym: int, e: int) -> None:
        if out and out[-1].sym == sym:
            out[-1] = Run(sym, out[-1].exponent + e)
        else:
            out.append(Run(sym, e))

    lrun = ps.left[level]
    if lrun is not None:
        push(lrun.sym, lrun.exponent)
    for sym, e in mid:
        if lvl[sym] == level + 1:
            if kind[sym] == POWER:
                push(t.arg0[sym], t.arg1[sym] * e)
            else:
                for _ in range(e):
                    push(t.arg0[sym], 1)
                    push(t.arg1[sym], 1)
        else:
            push(sym, e)
    rrun = ps.right[level]
    if rrun is not None:
        push(rrun.sym, rrun.exponent)

    left_off = ps.left_exp[level]
    right_cut = (x2 - x) - ps.right_exp[level]
    exp_len = right_cut - left_off
    sym_len = sum(e for _, e in out)
    assert exp_len == sum(e * t.explen[s] for s, e in out)
    assert sym_len > level
    return ProxyPattern(level=level, rle=tuple(out), left_off=left_off,
                        right_cut=right_cut, exp_len=exp_len, sym_len=sym_len)


def proxy_text(g: Grammar, y: int, y2: int, pp: ProxyPattern,
               nav: Navigator | None = None) -> ProxyText:
    """Cut the proxy window of the level string around the middle of Y.

    Walks the blocks of the next level string to either side of the middle
    position's block, then expands them one level down and, in the same
    pass, trims the result to at most window = sym_len+level-1 symbols on
    either side of the middle position's ancestor and to symbols whose
    expansions lie inside Y.  May be empty.  Each side's walk stops at the
    first of:

    (a) a block starting at or before y (backward) or ending at or after
        y2 (forward): blocks further out lie outside Y;
    (b) blocks holding window level-``level`` symbols in all: blocks
        further out lie beyond the trim width;
    (c) 2*level+2 blocks.
    """
    if y2 <= y:
        raise EmptyFragmentError("proxy text of an empty fragment")
    if not (0 <= y and y2 <= g.text_len):
        raise OutOfRangeError(f"fragment [{y}, {y2}) outside [0, {g.text_len})")
    if nav is None:
        nav = Navigator(g)
    t = g.table
    level = pp.level
    m = y + (y2 - y) // 2

    v = leaf(nav, m)
    m_node = v  # proxy-level ancestor of T[m]
    for k in range(level + 1):
        v = up(nav, v, k)
        if k + 1 == level:
            m_node = v

    # the block of T[m] at level+1 and up to `radius` blocks to either side.
    # A side's walk also stops once its last block reaches Y's end on that
    # side, or once its blocks hold `window` level-`level` symbols: every
    # further block then lies outside Y, or more than `window` symbols from
    # m_node, and the trim below would drop all of it.
    top = level + 1
    window = pp.sym_len + level - 1
    radius = 2 * level + 2
    lvl, kind, a0, a1, ln = t.level, t.kind, t.arg0, t.arg1, t.explen
    blocks = [v]
    for forward in (False, True):
        cur = v
        held = 0
        for _ in range(radius):
            if held >= window or (cur[0] + ln[cur[1]] >= y2 if forward else cur[0] <= y):
                break
            cur = step(nav, cur, top, forward)
            if cur is None:
                break
            blocks.append(cur)
            s = cur[1]
            if lvl[s] != top:
                held += 1
            else:
                held += a1[s] if kind[s] == POWER else 2
        if not forward:
            blocks.reverse()
            held_back = held

    # index level-`level` symbols from m_node, which is symbol i of its
    # block's expansion; the symbol trim keeps indices in [-window, window]
    pos, s, _ = v
    off = m_node[0] - pos
    if not 0 <= off < ln[s]:
        raise InternalInvariantError("proxy-level ancestor of T[m] outside its block")
    if lvl[s] == top and kind[s] == POWER:
        i = off // ln[a0[s]]
    else:  # a pair's second child, or the block itself
        i = 0 if off == 0 else 1
    base = -held_back - i  # index of the next run's first symbol

    # expand the blocks one level down and keep the symbols inside both
    # trims: within `window` of m_node, and with expansions inside Y.  The
    # bounds use plain comparisons: max/min calls made this loop, which
    # runs once per window symbol, markedly slower.
    out: list[Run] = []
    text_start = y
    exp_len = 0
    sym_len = 0
    end = -1  # text position just past the last kept symbol
    for pos, s, _ in blocks:
        if lvl[s] != top:
            runs = ((s, 1, pos),)
        elif kind[s] == POWER:
            runs = ((a0[s], a1[s], pos),)
        else:
            b = a0[s]
            runs = ((b, 1, pos), (a1[s], 1, pos + ln[b]))
        for sym, e, start in runs:
            w = ln[sym]
            if base <= 0 < base + e and (sym != m_node[1] or start - base * w != m_node[0]):
                raise InternalInvariantError("proxy-level ancestor of T[m] misaligned in its block")
            lo = -window - base
            if lo < 0:
                lo = 0
            if start < y:
                c = -((start - y) // w)  # ceil((y - start) / w)
                if c > lo:
                    lo = c
            hi = window - base
            if hi >= e:
                hi = e - 1
            c = (y2 - start) // w - 1
            if c < hi:
                hi = c
            base += e
            if lo > hi:
                continue
            first = start + lo * w
            if end < 0:
                text_start = first
            elif first != end:
                raise InternalInvariantError("proxy window not contiguous")
            k = hi - lo + 1
            end = first + k * w
            if out and out[-1][0] == sym:
                out[-1] = Run(sym, out[-1][1] + k)
            else:
                out.append(Run(sym, k))
            exp_len += k * w
            sym_len += k
    return ProxyText(rle=tuple(out), text_start=text_start,
                     exp_len=exp_len, sym_len=sym_len)


def _failure(tokens: Sequence[Run]) -> list[int]:
    pi = [0] * len(tokens)
    k = 0
    for i in range(1, len(tokens)):
        while k > 0 and tokens[i] != tokens[k]:
            k = pi[k - 1]
        if tokens[i] == tokens[k]:
            k += 1
        pi[i] = k
    return pi


def rle_match(pattern: Sequence[Run], seq: Sequence[Run]) -> list[Progression]:
    """All occurrences of one run-length encoded symbol string in another.

    Positions are symbol offsets in the decoded sequence, grouped greedily
    into arithmetic progressions with difference at most the pattern's
    symbol length.  Interior runs must match exactly; boundary runs only
    need a sufficient exponent of the right symbol.
    """
    if len(pattern) == 0:
        raise EmptyPatternError("cannot match an empty pattern")
    plen = sum(e for _, e in pattern)

    if len(pattern) == 1:
        a, p = pattern[0]
        out = []
        cum = 0
        for b, e in seq:
            if b == a and e >= p:
                out.append(Progression.of(cum, 1, e - p + 1))
            cum += e
        return out

    # multi-run pattern: failure-function match over the interior runs,
    # then boundary checks on the two flanking runs
    first = pattern[0]
    last = pattern[-1]
    interior = list(pattern)[1:-1]
    prefix = [0] * (len(seq) + 1)
    for i, (_, e) in enumerate(seq):
        prefix[i + 1] = prefix[i] + e

    occs: list[int] = []

    def check(u: int) -> None:
        # interior (possibly empty) occupies seq[u .. u+len(interior))
        j = u + len(interior)
        if u - 1 < 0 or j >= len(seq):
            return
        ls, le = seq[u - 1]
        rs, re = seq[j]
        if ls == first.sym and le >= first.exponent and rs == last.sym and re >= last.exponent:
            occs.append(prefix[u] - first.exponent)

    if interior:
        pi = _failure(interior)
        k = 0
        for i, tok in enumerate(seq):
            while k > 0 and tok != interior[k]:
                k = pi[k - 1]
            if tok == interior[k]:
                k += 1
            if k == len(interior):
                check(i - k + 1)
                k = pi[k - 1]
    else:
        for u in range(1, len(seq)):
            check(u)

    # greedy grouping into progressions with difference <= plen
    out = []
    i = 0
    while i < len(occs):
        if i + 1 < len(occs) and occs[i + 1] - occs[i] <= plen:
            d = occs[i + 1] - occs[i]
            j = i + 1
            while j + 1 < len(occs) and occs[j + 1] - occs[j] == d:
                j += 1
            out.append(Progression.of(occs[i], d, j - i + 1))
            i = j + 1
        else:
            out.append(Progression.of(occs[i], 1, 1))
            i += 1
    return out


def lift_progression(g: Grammar, v: Progression, pt: ProxyText,
                     pp: ProxyPattern) -> tuple[Progression, int]:
    """Map a symbol-offset progression in the proxy text to text positions.

    Returns the progression of absolute text positions and the text-level
    step: the expansion length of the first ``diff`` proxy-pattern symbols
    (consecutive matches overlap in all but that prefix).
    """
    start = pt.text_start + _exp_prefix(g, pt.rle, v.start)
    if v.count >= 2:
        gstep = _exp_prefix(g, pp.rle, v.diff)
    else:
        gstep = pp.exp_len
    return Progression.of(start, gstep, v.count), gstep


def verify_progression(g: Grammar, v: Progression, gstep: int, pp: ProxyPattern,
                       x: int, x2: int, y: int, y2: int,
                       nav: Navigator | None = None) -> Progression:
    """Occurrences of X in Y among the candidates induced by one progression.

    ``v`` holds absolute text positions of occurrences of the proxy
    pattern's expansion inside Y, spaced ``gstep`` apart.  Five LCE queries
    decide, in bulk, which candidates extend to occurrences of X: either
    the period gstep extends through all of X and a closed-form index range
    answers, or the period breaks somewhere in X and at most one alignment
    survives.  Occurrences sticking out of Y are filtered.
    """
    if v.count == 0:
        return EMPTY_PROGRESSION
    if nav is None:
        nav = Navigator(g)
    xlen = x2 - x
    head = pp.left_off      # X-offset where the encoded window starts
    cut = pp.right_cut      # X-offset where the encoded window ends
    first = v.start
    s = v.count
    if s == 1:
        p = first - head
        if p < y or p + xlen > y2:
            return EMPTY_PROGRESSION
        if lce(g, p, x, nav) >= xlen:
            return Progression.of(p, 1, 1)
        return EMPTY_PROGRESSION

    step = gstep
    end = first + (s - 1) * step + pp.exp_len  # just past the last occurrence
    # how far the period `step` of the window extends, within X and within Y
    x_left = min(rev_lce(g, x + head, x + head + step, nav), head)
    x_right = min(lce(g, x + cut, x + cut - step, nav), xlen - cut)
    y_left = min(rev_lce(g, first, first + step, nav), first - y)
    y_right = min(lce(g, end, end - step, nav), y2 - end)

    if x_left == head and x_right == xlen - cut:
        # the period extends through all of X: occurrences are exactly the
        # candidates whose X-extent stays inside the periodic region of Y
        lo = (max(0, x_left - y_left) + step - 1) // step
        hi = s - (max(0, x_right - y_right) + step - 1) // step
        if hi <= lo:
            return EMPTY_PROGRESSION
        return Progression.of(first - head + lo * step, step, hi - lo)

    if x_left < head:
        # the period breaks inside X left of the window; align the breaks
        cand = first - head + x_left - y_left
    else:
        cand = end - cut + y_right - x_right
    if cand < y or cand + xlen > y2:
        return EMPTY_PROGRESSION
    if lce(g, cand, x, nav) >= xlen:
        return Progression.of(cand, 1, 1)
    return EMPTY_PROGRESSION


def _merge_two(p: Progression, q: Progression) -> Progression | None:
    """Union of two progressions when it is itself a progression, else None."""
    if q.start < p.start:
        p, q = q, p
    if p.count == 1 and q.count == 1:
        if p.start == q.start:
            return p
        return Progression.of(p.start, q.start - p.start, 2)
    if p.count == 1:
        d = q.diff
    elif q.count == 1:
        d = p.diff
    elif p.diff == q.diff:
        d = p.diff
    else:
        return None
    if (q.start - p.start) % d != 0 or q.start > p.last + d:
        return None
    last = max(p.last, q.last)
    return Progression.of(p.start, d, (last - p.start) // d + 1)


def _merge_all(parts: list[Progression]) -> Progression:
    parts = [p for p in parts if p.count > 0]
    if not parts:
        return EMPTY_PROGRESSION
    parts.sort(key=lambda p: p.start)
    acc = parts[0]
    for p in parts[1:]:
        merged = _merge_two(acc, p)
        if merged is None:
            break
        acc = merged
    else:
        return acc
    # shapes did not combine arithmetically; materialize and re-check
    total = sum(p.count for p in parts)
    if total > _MERGE_MATERIALIZE_CAP:
        raise InternalInvariantError("occurrence union too large to verify as one progression")
    positions = sorted({pos for p in parts for pos in p.positions()})
    if len(positions) == 1:
        return Progression.of(positions[0], 1, 1)
    d = positions[1] - positions[0]
    if any(positions[i + 1] - positions[i] != d for i in range(len(positions) - 1)):
        raise InternalInvariantError("occurrences do not form a single arithmetic progression")
    return Progression.of(positions[0], d, len(positions))


def ipm_query(g: Grammar, x: int, x2: int, y: int, y2: int,
              nav: Navigator | None = None) -> Progression:
    """All positions p with T[p, p+|X|) = T[x, x2) and [p, p+|X|) inside [y, y2).

    Requires |Y| < 2|X|, which guarantees the result is one arithmetic
    progression.
    """
    n = g.text_len
    if not (0 <= x <= x2 <= n and 0 <= y <= y2 <= n):
        raise OutOfRangeError(f"fragments ([{x},{x2}), [{y},{y2})) outside [0, {n}]")
    if x2 <= x:
        raise EmptyPatternError("IPM pattern fragment is empty")
    if y2 - y >= 2 * (x2 - x):
        raise RatioViolationError(
            f"|Y| = {y2 - y} must be smaller than 2|X| = {2 * (x2 - x)}")
    if y2 - y < x2 - x:
        return EMPTY_PROGRESSION
    if nav is None:
        nav = Navigator(g)
    pp = proxy_pattern(g, x, x2, nav)
    pt = proxy_text(g, y, y2, pp, nav)
    if pt.sym_len < pp.sym_len:
        return EMPTY_PROGRESSION
    results = []
    for vl in rle_match(pp.rle, pt.rle):
        v, gstep = lift_progression(g, vl, pt, pp)
        verified = verify_progression(g, v, gstep, pp, x, x2, y, y2, nav)
        if verified.count:
            results.append(verified)
    return _merge_all(results)
