"""Internal pattern matching: all occurrences of fragment X inside fragment Y.

The query requires |Y| < 2|X|, which forces every occurrence of X to cover
the middle position of Y and makes the answer a single arithmetic
progression of start positions.  The pipeline:

1. Pop the pattern level by level, then rebuild the shrunken pattern from
   the top level down, one level at a time, until it has more symbols
   than its level number: that level is the proxy level, the deepest
   where this holds.
2. Cut a proxy window out of the text's level string around the middle of
   Y, just wide enough to contain the induced occurrence of every
   occurrence of X in Y.  The block walk behind it stops on each side at
   the first of: Y's end on that side, enough symbols for the trim width,
   or 2*level+2 blocks.
3. Match the two run-length encoded symbol sequences, producing O(1)
   candidate progressions.
4. Verify each progression with a constant number of LCE queries, using
   periodicity to accept or reject whole progressions at once, and fold
   the verified parts into the one answer progression.

Everything runs in O(r) node operations per query.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import (
    EmptyFragmentError,
    EmptyPatternError,
    InternalInvariantError,
    OutOfRangeError,
    RatioViolationError,
)
from .extension import lce, rev_lce
from .grammar import FrozenRecord, Grammar
from .navigator import Navigator, leaf
from .popped import PoppedSeq, Run, pseq

class Progression(FrozenRecord):
    """Arithmetic progression start, start+diff, ..., count terms.

    count == 0 encodes the empty set; diff is normalized to 1 when
    count <= 1.
    """

    __slots__ = ("start", "diff", "count")

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


class ProxyPattern(FrozenRecord):
    """Run-length encoded stand-in for the pattern fragment at the proxy level.

    Its expansion equals X[left_off, right_cut); exp_len and sym_len are
    the expansion length and the symbol count of the encoded sequence.
    """

    __slots__ = ("level", "rle", "left_off", "right_cut", "exp_len", "sym_len")


class ProxyText(FrozenRecord):
    """Run-length encoded window of the level string around the middle of Y.

    text_start is the text position of its expansion; sym_len == 0 encodes
    an empty window.
    """

    __slots__ = ("rle", "text_start", "exp_len", "sym_len")


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
    if nsyms > 0:
        raise InternalInvariantError("prefix longer than the run sequence")
    return total


def proxy_pattern(g: Grammar, x: int, x2: int, nav: Navigator | None = None,
                  ps: PoppedSeq | None = None) -> ProxyPattern:
    """Compute the proxy level and the run-length encoding of the shrunken pattern.

    One pass from the top level q down builds each shrunken pattern X̄_k
    from the one above it, run-length encoded with equal neighbours merged:
    by the popped-sequence identity X̄_k is L_k, then X̄_{k+1} with each
    level-(k+1) symbol expanded one level, then R_k.  The proxy level is
    the largest k whose pattern has more than k symbols, so the first such
    k from the top is the level, and the pass stops there with that
    pattern.  Each level touches only its own pattern's runs, at most k of
    them above the proxy level, where the pattern has at most k symbols.
    The result has at most 2*level+4 runs: the pattern one level up has at
    most level+1 symbols, each gives at most two, and L_level and R_level
    one each.
    """
    nav = Navigator.of(g, nav)
    if x2 <= x:
        raise EmptyFragmentError("proxy pattern of an empty fragment")
    if ps is None:
        ps = pseq(g, x, x2, nav)
    t = g.table
    lvl, a0, a1, explen = t.level, t.arg0, t.arg1, t.explen

    out: list[Run] = []
    size = 0  # symbols in out
    for level in range(ps.q, -1, -1):
        top = level + 1
        # new: the pattern at this level; last: its last run's symbol, or -1
        run = ps.left[level]
        if run is None:
            new, last = [], -1
        else:
            new, last = [run], run[0]
            size += run[1]
        run = ps.right[level]
        if run is not None:  # R_level: below top, so only merged
            out.append(run)
            size += run[1]
        for sym, m in out:
            if lvl[sym] == top:  # made in round top: expand it one level
                b = a0[sym]
                if top & 1:  # a power: arg1 is the exponent
                    e = a1[sym]
                    size += (e - 1) * m
                    sym, m = b, e * m
                else:  # a pair, m times: B, (C, B) * (m - 1), C
                    size += m
                    if b == last:
                        new[-1] = (b, new[-1][1] + 1)
                    else:
                        new.append((b, 1))
                    last = a1[sym]
                    new += [(last, 1), (b, 1)] * (m - 1)
                    new.append((last, 1))
                    continue
            if sym == last:
                new[-1] = (sym, new[-1][1] + m)
            else:
                new.append((sym, m))
                last = sym
        out = new
        if size > level:
            break
    else:
        raise InternalInvariantError("proxy level not found: the pattern cannot be empty")
    if len(out) > 2 * level + 4:
        raise InternalInvariantError("proxy pattern has more runs than its level allows")

    left_off = ps.left_exp[level]
    right_cut = (x2 - x) - ps.right_exp[level]
    exp_len = right_cut - left_off
    if exp_len != sum([e * explen[sym] for sym, e in out]):
        raise InternalInvariantError("proxy pattern does not expand to its window of X")
    return ProxyPattern(level=level, rle=tuple(out), left_off=left_off,
                        right_cut=right_cut, exp_len=exp_len, sym_len=size)


def proxy_text(g: Grammar, y: int, y2: int, pp: ProxyPattern,
               nav: Navigator | None = None) -> ProxyText:
    """Cut the proxy window of the level string around the middle of Y.

    Walks the blocks of the next level string to either side of the middle
    position's block, expanding each block one level down into runs as it
    goes, then trims the runs to at most window = sym_len+level-1 symbols
    on either side of the middle position's ancestor and to symbols whose
    expansions lie inside Y.  May be empty.  Each side's walk stops at the
    first of:

    (a) a block starting at or before y (backward) or ending at or after
        y2 (forward): blocks further out lie outside Y.  As 0 <= y and
        y2 <= n, this also keeps the walk from stepping off the text;
    (b) blocks holding window level-``level`` symbols in all: blocks
        further out lie beyond the trim width;
    (c) 2*level+2 blocks.

    The trim cuts only at the two ends.  Both of its bounds, [-window,
    window] on a symbol's index and [y, y2) on its expansion, are
    intervals in text order, so the symbols kept are contiguous: from the
    left, runs are cut up to the first run that is whole on that side, and
    likewise from the right.  That run need not lie in the outermost
    block: when the middle position's ancestor lies deep inside a long
    power, runs of several blocks fall outside the window.
    """
    nav = Navigator.of(g, nav)
    if y2 <= y:
        raise EmptyFragmentError("proxy text of an empty fragment")
    if not (0 <= y and y2 <= g.text_len):
        raise OutOfRangeError(f"fragment [{y}, {y2}) outside [0, {g.text_len})")
    lvl, a0, a1, ln = nav.cols
    level = pp.level
    m = y + (y2 - y) // 2

    # T[m]'s proxy-level node, then its level-(level+1) node by one ``up``
    m_node = leaf(nav, m, level)
    par = m_node[2]
    v = par if par is not None and lvl[par[1]] == level + 1 else m_node
    c = 1

    # the block of T[m] at level+1, expanded; m_node is symbol i of it
    top = level + 1
    window = pp.sym_len + level - 1
    radius = 2 * level + 2
    pos, s, _ = v
    off = m_node[0] - pos
    if not 0 <= off < ln[s]:
        raise InternalInvariantError("proxy-level ancestor of T[m] outside its block")
    if lvl[s] != top:
        b, nv, i = s, 1, 0
        mid = [(s, 1)]
        aligned = off == 0
    elif top & 1:  # a power
        b, nv = a0[s], a1[s]
        i = off // ln[b]
        mid = [(b, nv)]
        aligned = off == i * ln[b]
    else:  # a pair
        nv = 2
        i = 0 if off == 0 else 1
        b = a1[s] if i else a0[s]
        mid = [(a0[s], 1), (a1[s], 1)]
        aligned = off == i * ln[a0[s]]
    if not aligned or b != m_node[1]:
        raise InternalInvariantError("proxy-level ancestor of T[m] misaligned in its block")

    # walk back from the block, then on from it, with the moves of
    # ``rlslp.navigator`` inline, expanding each block on the way and
    # merging equal neighbours
    back: list[Run] = []  # the runs before the block, nearest first
    held_back = 0  # symbols in them
    start = pos  # text position of the walked blocks' expansion
    p, s, par = v
    for _ in range(radius):
        if held_back >= window or p <= y:
            break
        while par is not None:  # climb to the sibling before
            c += 2
            ps = par[1]
            if lvl[ps] & 1:  # a power: a sibling unless s is its first copy
                if p > par[0]:
                    p -= ln[s]
                    break
            elif p != par[0]:  # a pair: the left child
                p, s = par[0], a0[ps]
                break
            p, s, par = par
        else:
            raise InternalInvariantError("proxy window walk left the text")
        while lvl[s] > top:  # last children down to level+1
            c += 1
            par = (p, s, par)
            b = a0[s]
            if lvl[s] & 1:  # a power: its last copy
                p += ln[s] - ln[b]
            else:
                p += ln[b]
                b = a1[s]
            s = b
        if p + ln[s] != start:
            raise InternalInvariantError("proxy window not contiguous")
        start = p
        if lvl[s] != top:
            runs = ((s, 1),)
        elif top & 1:  # a power
            runs = ((a0[s], a1[s]),)
        else:
            runs = ((a1[s], 1), (a0[s], 1))
        for b, e in runs:
            held_back += e
            if back and back[-1][0] == b:
                back[-1] = (b, back[-1][1] + e)
            else:
                back.append((b, e))

    held = 0  # symbols in the blocks after the block
    end = pos + ln[v[1]]  # text position just past the walked blocks
    p, s, par = v
    for _ in range(radius):
        if held >= window or p + ln[s] >= y2:
            break
        while par is not None:  # climb to the sibling after
            c += 2
            ps = par[1]
            if lvl[ps] & 1:  # a power: a sibling unless s is its last copy
                if p + ln[s] < par[0] + ln[ps]:
                    p += ln[s]
                    break
            elif p == par[0]:  # a pair: the right child
                p, s = p + ln[s], a1[ps]
                break
            p, s, par = par
        else:
            raise InternalInvariantError("proxy window walk left the text")
        while lvl[s] > top:  # first children down to level+1
            c += 1
            par = (p, s, par)
            s = a0[s]
        if p != end:
            raise InternalInvariantError("proxy window not contiguous")
        end = p + ln[s]
        if lvl[s] != top:
            runs = ((s, 1),)
        elif top & 1:  # a power
            runs = ((a0[s], a1[s]),)
        else:
            runs = ((a0[s], 1), (a1[s], 1))
        for b, e in runs:
            held += e
            if mid[-1][0] == b:
                mid[-1] = (b, mid[-1][1] + e)
            else:
                mid.append((b, e))
    nav.steps += c

    back.reverse()
    if back and back[-1][0] == mid[0][0]:
        mid[0] = (mid[0][0], back.pop()[1] + mid[0][1])
    runs = back + mid

    # trim from the left: the first run's first symbol has index ``first``
    # counted from m_node, and its expansion starts at ``start``
    first = -held_back - i
    a, z = 0, len(runs)
    while a < z:
        b, e = runs[a]
        w = ln[b]
        cut = -window - first
        if start < y:
            t = -((start - y) // w)  # ceil((y - start) / w)
            if t > cut:
                cut = t
        if cut <= 0:  # whole on the left, and so is every run after it
            break
        if cut < e:
            runs[a] = (b, e - cut)
            start += cut * w
            first += cut
            break
        start += e * w
        first += e
        a += 1
    # trim from the right: the last run's last symbol has index ``last`` - 1
    # and its expansion ends at ``end``
    last = nv - i + held
    while z > a:
        b, e = runs[z - 1]
        w = ln[b]
        keep = window - (last - e) + 1
        t = (y2 - end) // w + e
        if t < keep:
            keep = t
        if keep >= e:  # whole on the right, and so is every run before it
            break
        if keep > 0:
            runs[z - 1] = (b, keep)
            end -= (e - keep) * w
            last -= e - keep
            break
        end -= e * w
        last -= e
        z -= 1
    if a == z:
        return ProxyText(rle=(), text_start=y, exp_len=0, sym_len=0)
    return ProxyText(rle=tuple(runs[a:z]), text_start=start,
                     exp_len=end - start, sym_len=last - first)


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
    # then boundary checks on the two flanking runs; an occurrence is the
    # index u in seq of its first interior run
    (fs, fe), (ls, le) = pattern[0], pattern[-1]
    interior = list(pattern)[1:-1]
    ni = len(interior)
    starts: list[int] = []
    if interior:
        pi = _failure(interior)
        k = 0
        last = len(seq) - 1
        for i, tok in enumerate(seq):
            while k > 0 and tok != interior[k]:
                k = pi[k - 1]
            if tok == interior[k]:
                k += 1
            if k == ni:
                k = pi[k - 1]
                u = i - ni + 1
                if 0 < u and i < last:
                    a, ae = seq[u - 1]
                    b, be = seq[i + 1]
                    if a == fs and ae >= fe and b == ls and be >= le:
                        starts.append(u)
    else:
        for u in range(1, len(seq)):
            a, ae = seq[u - 1]
            b, be = seq[u]
            if a == fs and ae >= fe and b == ls and be >= le:
                starts.append(u)
    if not starts:
        return []
    prefix = [0, *accumulate(map(itemgetter(1), seq))]
    occs = [prefix[u] - fe for u in starts]

    # greedy grouping into progressions with difference <= plen: each
    # occurrence extends the last progression if it is its next term
    out: list[Progression] = []
    for o in occs:
        if out:
            p = out[-1]
            d = o - p.start if p.count == 1 else p.diff
            if o - p.last == d and d <= plen:
                out[-1] = Progression.of(p.start, d, p.count + 1)
                continue
        out.append(Progression.of(o, 1, 1))
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
    survives.  Occurrences sticking out of Y are filtered.  A single
    candidate at X's own position needs no LCE walk: ``lce`` of a position
    with itself is its suffix length, charged no step.
    """
    nav = Navigator.of(g, nav)
    if v.count == 0:
        return EMPTY_PROGRESSION
    xlen = x2 - x
    head = pp.left_off      # X-offset where the encoded window starts
    cut = pp.right_cut      # X-offset where the encoded window ends
    first = v.start
    s = v.count
    if s == 1:
        cand = first - head
    else:
        end = first + (s - 1) * gstep + pp.exp_len  # just past the last occurrence
        # how far the period `gstep` of the window extends, within X and within Y
        x_left = min(rev_lce(g, x + head, x + head + gstep, nav), head)
        x_right = min(lce(g, x + cut, x + cut - gstep, nav), xlen - cut)
        y_left = min(rev_lce(g, first, first + gstep, nav), first - y)
        y_right = min(lce(g, end, end - gstep, nav), y2 - end)

        if x_left == head and x_right == xlen - cut:
            # the period extends through all of X: occurrences are exactly the
            # candidates whose X-extent stays inside the periodic region of Y
            lo = (max(0, x_left - y_left) + gstep - 1) // gstep
            hi = s - (max(0, x_right - y_right) + gstep - 1) // gstep
            if hi <= lo:
                return EMPTY_PROGRESSION
            return Progression.of(first - head + lo * gstep, gstep, hi - lo)

        if x_left < head:
            # the period breaks inside X left of the window; align the breaks
            cand = first - head + x_left - y_left
        else:
            cand = end - cut + y_right - x_right
    # a single candidate remains: check it directly
    if cand < y or cand + xlen > y2:
        return EMPTY_PROGRESSION
    if lce(g, cand, x, nav) >= xlen:
        return Progression.of(cand, 1, 1)
    return EMPTY_PROGRESSION


def _merge_all(parts: list[Progression]) -> Progression:
    """Fold the verified parts, sorted by start, into the one answer progression.

    Every occurrence of X covers the middle of Y, so the answer is one
    progression and each verified part is a run of consecutive terms of it.
    A part with two or more terms has the answer's difference.  An
    occurrence between two parts would induce a proxy occurrence between
    two consecutive ``rle_match`` occurrences, so the fold never meets a
    gap; a misaligned part, another difference or a gap is a bug.
    """
    parts = sorted((p for p in parts if p.count), key=lambda p: p.start)
    acc = parts[0] if parts else EMPTY_PROGRESSION
    for p in parts[1:]:
        if acc.count >= 2:
            d = acc.diff
        elif p.count >= 2:
            d = p.diff
        elif p.start == acc.start:
            continue
        else:
            d = p.start - acc.start
        if (p.count >= 2 and p.diff != d) or (p.start - acc.start) % d != 0 \
                or p.start > acc.last + d:
            raise InternalInvariantError("occurrences do not form a single arithmetic progression")
        acc = Progression.of(acc.start, d, (max(acc.last, p.last) - acc.start) // d + 1)
    return acc


def ipm_query(g: Grammar, x: int, x2: int, y: int, y2: int,
              nav: Navigator | None = None) -> Progression:
    """All positions p with T[p, p+|X|) = T[x, x2) and [p, p+|X|) inside [y, y2).

    Requires |Y| < 2|X|, which guarantees the result is one arithmetic
    progression.
    """
    nav = Navigator.of(g, nav)
    n = g.text_len
    if not (0 <= x <= n and 0 <= x2 <= n and 0 <= y <= n and 0 <= y2 <= n):
        raise OutOfRangeError(f"fragments ([{x},{x2}), [{y},{y2})) outside [0, {n}]")
    if x2 < x or y2 < y:
        which, i, j = ("X", x, x2) if x2 < x else ("Y", y, y2)
        raise OutOfRangeError(f"fragment {which} = [{i},{j}) is reversed")
    if x2 <= x:
        raise EmptyPatternError("IPM pattern fragment is empty")
    if y2 - y >= 2 * (x2 - x):
        raise RatioViolationError(
            f"|Y| = {y2 - y} must be smaller than 2|X| = {2 * (x2 - x)}")
    if y2 - y < x2 - x:
        return EMPTY_PROGRESSION
    pp = proxy_pattern(g, x, x2, nav)
    pt = proxy_text(g, y, y2, pp, nav)
    if pt.sym_len < pp.sym_len:
        return EMPTY_PROGRESSION
    parts = []
    for vl in rle_match(pp.rle, pt.rle):
        v, gstep = lift_progression(g, vl, pt, pp)
        parts.append(verify_progression(g, v, gstep, pp, x, x2, y, y2, nav))
    return _merge_all(parts)
