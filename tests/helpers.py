"""Shared corpus generation for the test suite."""

from __future__ import annotations

import random

from rlslp.builder import LevelString, draw_partition, shrink_pc, shrink_rle
from rlslp.errors import (BadLevelError, EmptyFragmentError, IndexFormatError,
                          InternalInvariantError, OutOfRangeError)
from rlslp.grammar import PAIR, POWER, TERMINAL, Grammar, SymbolTable
from rlslp.ipm import ProxyText
from rlslp.navigator import highest, leaf, leaves

ALPHABETS = (1, 2, 4, 26)


def random_text(rng: random.Random, max_len: int, sigma: int, min_len: int = 1) -> str:
    length = rng.randint(min_len, max_len)
    return "".join(chr(ord("a") + rng.randrange(sigma)) for _ in range(length))


def terminal_columns(letters):
    """The ``(arg0, arg1, level)`` columns of one terminal per letter, and
    their ids."""
    n = len(letters)
    return ([ord(ch) for ch in letters], [0] * n, [0] * n), list(range(n))


def text_corpus(count: int, max_len: int, seed: int = 0):
    """Yield (text, build_seed) pairs cycling through the alphabet sizes."""
    rng = random.Random(seed)
    for i in range(count):
        sigma = ALPHABETS[i % len(ALPHABETS)]
        yield random_text(rng, max_len, sigma), seed * 10_000 + i


def parity_build(text, seed):
    """A recompression grammar of ``text`` whose pair rounds take as left
    the symbols of even first-occurrence rank instead of drawing coins, and
    the number of its pair rounds whose merges differ from the coin's.  The
    first two symbols of a run-free string have ranks 0 and 1 and merge, so
    every pair round shortens the string."""
    letters = list(dict.fromkeys(text))
    cols, _ = terminal_columns(letters)
    cur = LevelString(0, [letters.index(ch) for ch in text])
    differ = 0
    while len(cur.symbols) > 1:
        if cur.level % 2 == 0:
            cur = shrink_rle(cur, *cols)
            continue
        left = set(list(dict.fromkeys(cur.symbols))[0::2])
        adjacent = set(zip(cur.symbols, cur.symbols[1:]))
        coin = draw_partition(cur, seed)
        differ += ({(a, b) for a, b in adjacent if a in left and b not in left} !=
                   {(a, b) for a, b in adjacent if a in coin and b not in coin})
        cur = shrink_pc(cur, left, *cols)
    table = SymbolTable.from_columns(*cols, len(text))
    return Grammar(table=table, start=cur.symbols[0], rounds=cur.level, seed=seed,
                   text_len=len(text)), differ


def random_ipm_pair(rng: random.Random, n: int) -> tuple[int, int, int, int]:
    """A valid (x, x2, y, y2) with 1 <= |X| and |X| <= |Y| < 2|X|."""
    xl = rng.randint(1, n)
    x = rng.randint(0, n - xl)
    yl = rng.randint(xl, min(2 * xl - 1, n))
    y = rng.randint(0, n - yl)
    return x, x + xl, y, y + yl


# Reference moves.  The single moves ``ahead``, ``jump``, ``first_child``
# and ``up``, and the climb-and-descend walks ``step`` and ``climb``, are the
# moves that the query loops take inline.  ``ref_climb``, ``ref_step``,
# ``ref_pseq`` and ``ref_lce`` rebuild the walks as chains of single moves,
# and ``ref_proxy_text`` walks by ``step``.  The inline walks must return the
# same cursors and answers and charge the same steps.

def step(nav, v, k, forward):
    """Next (forward) or previous (backward) character of level string ``k``
    after the level-k node ``v``; None past the end of the string.  Climbs
    to the sibling ahead of ``v`` or of its nearest ancestor that has one,
    then takes first children down to level k, all in one frame."""
    lvl, a0, a1, ln = nav.cols
    pos, s, par = v
    n = 0
    while par is not None:
        n += 2
        ps = par[1]
        if lvl[ps] & 1:  # a power: a sibling unless s is its last (first) copy
            if pos + ln[s] < par[0] + ln[ps] if forward else pos > par[0]:
                pos += ln[s] if forward else -ln[s]
                break
        elif (pos == par[0]) == forward:  # a pair: the other child
            pos, s = (pos + ln[s], a1[ps]) if forward else (par[0], a0[ps])
            break
        pos, s, par = par
    else:
        nav.steps += n
        return None
    v = (pos, s, par)
    while lvl[s] > k:
        n += 1
        b = a0[s]
        if not forward:
            if lvl[s] & 1:  # a power: its last copy
                pos += ln[s] - ln[b]
            else:
                pos += ln[b]
                b = a1[s]
        v = (pos, b, v)
        s = b
    nav.steps += n
    return v


def ahead(nav, v, forward):
    """Number of siblings of ``v`` in the direction of travel; 0 at the root."""
    par = v[2]
    if par is None:
        return 0
    nav.steps += 1
    t = nav.g.table
    ps = par[1]
    if t.level[ps] & 1:  # a power
        idx = (v[0] - par[0]) // t.explen[v[1]]
        return t.arg1[ps] - 1 - idx if forward else idx
    return 1 if (v[0] == par[0]) == forward else 0


def jump(nav, v, d, forward):
    """The ``d``-th sibling of ``v`` in the direction of travel; it must exist."""
    nav.steps += 1
    t = nav.g.table
    par = v[2]
    ps = par[1]
    if t.level[ps] & 1:  # a power
        w = d * t.explen[v[1]]
        return (v[0] + w if forward else v[0] - w, v[1], par)
    b = t.arg0[ps]  # a pair, so d == 1: the other child
    return (par[0] + t.explen[b], t.arg1[ps], par) if forward else (par[0], b, par)


def first_child(nav, v, forward):
    """First child of ``v`` in the direction of travel (the last child backward)."""
    nav.steps += 1
    t = nav.g.table
    pos, s, _ = v
    b = t.arg0[s]
    if forward:
        return (pos, b, v)
    if t.level[s] & 1:  # a power
        return (pos + t.explen[s] - t.explen[b], b, v)
    return (pos + t.explen[b], t.arg1[s], v)


def up(nav, v, k):
    """Level-(k+1) node above the level-k node ``v``: its parent, or ``v``
    itself when the edge is subdivided (the parent symbol was created above
    round k+1)."""
    nav.steps += 1
    par = v[2]
    if par is not None and nav.g.table.level[par[1]] == k + 1:
        return par
    return v


def climb(nav, v, forward):
    """Highest cursor whose fragment starts right after ``v``'s (forward) or
    ends right before it (backward); None at the end of the text.  The
    fused form: ``step`` at the root's level, which never descends."""
    return step(nav, v, nav.g.table.level[nav.g.start], forward)


def ref_climb(nav, v, forward):
    """Highest cursor whose fragment starts right after ``v``'s (forward) or
    ends right before it (backward); None at the end of the text."""
    while v[2] is not None:
        if ahead(nav, v, forward):
            return jump(nav, v, 1, forward)
        v = v[2]
        nav.steps += 1
    return None


def ref_step(nav, v, k, forward):
    """Next (previous) character of level string ``k`` after the level-k node ``v``."""
    v = ref_climb(nav, v, forward)
    if v is not None:
        while nav.g.table.level[v[1]] > k:
            v = first_child(nav, v, forward)
    return v


def _ref_pop(nav, v, v_p, k, forward):
    if v_p is v:  # a subdivided edge: v is a block of its own
        return (v[1], 1), ref_step(nav, v, k + 1, forward)
    if k & 1 and (v[0] == v_p[0]) == forward:
        return None, v_p
    return (v[1], ahead(nav, v, forward) + 1), ref_step(nav, v_p, k + 1, forward)


def ref_pseq(nav, x_start, x_end):
    """``(left, right)`` of ``pseq(g, x_start, x_end)``, popped by single moves."""
    lo, hi = leaves(nav, x_start, x_end - 1)
    left, right = [], []
    for k in range(nav.g.rounds + 2):
        lo_p, hi_p = up(nav, lo, k), up(nav, hi, k)
        if lo_p[0] == hi_p[0] and not (k & 1 and lo_p is not lo and lo[0] == lo_p[0]
                                       and lo[0] != hi[0]):
            e = ahead(nav, hi, False) - ahead(nav, lo, False) + 1 if lo_p is not lo else 1
            return left + [(lo[1], e)], right + [None]
        l_run, lo_next = _ref_pop(nav, lo, lo_p, k, True)
        r_run, hi_next = _ref_pop(nav, hi, hi_p, k, False)
        left.append(l_run)
        right.append(r_run)
        if l_run is not None and r_run is not None and (lo_next is None
                                                        or lo_next[0] == hi_p[0]):
            return left, right
        lo, hi = lo_next, hi_next
    raise AssertionError("reference pseq exceeded the round count")


def ref_lce(nav, i, i2, forward):
    """``lce`` (forward) or ``rev_lce`` (backward) of positions ``i`` and
    ``i2`` in range, walked by single moves; equal positions need no walk."""
    if i == i2:
        return nav.g.text_len - i if forward else i
    end = nav.g.text_len if forward else 0
    if i == end or i2 == end:
        return 0
    ln = nav.g.table.explen
    v, v2 = highest(nav, i, forward), highest(nav, i2, forward)
    total = 0
    while v is not None and v2 is not None:
        if v[1] == v2[1]:
            d = min(ahead(nav, v, forward), ahead(nav, v2, forward))
            if d >= 1:
                total += d * ln[v[1]]
                v, v2 = jump(nav, v, d, forward), jump(nav, v2, d, forward)
            else:
                total += ln[v[1]]
                v, v2 = ref_climb(nav, v, forward), ref_climb(nav, v2, forward)
        else:
            l1, l2 = ln[v[1]], ln[v2[1]]
            if l1 == 1 and l2 == 1:
                break
            if l1 >= l2:
                v = first_child(nav, v, forward)
            if l2 >= l1:
                v2 = first_child(nav, v2, forward)
    return total


# Reference descents: ``leaf``, ``leaves`` and ``highest`` with no descent
# frontier, every walk from the root at two steps per level.  The frontier
# descents must return equal cursors.

def _ref_child(nav, pos, s, j):
    """``(pos, sym)`` of the child over text position ``j`` of the node at
    ``pos`` with symbol ``s``, which holds it; two steps."""
    t = nav.g.table
    nav.steps += 2
    b = t.arg0[s]
    if t.level[s] & 1:  # a power
        return pos + (j - pos) // t.explen[b] * t.explen[b], b
    if j >= pos + t.explen[b]:  # a pair whose right child holds j
        return pos + t.explen[b], t.arg1[s]
    return pos, b


def _ref_down(nav, v, j, k):
    """Level-``k`` cursor over text position ``j`` below ``v``, which holds it."""
    while nav.g.table.level[v[1]] > k:
        v = (*_ref_child(nav, v[0], v[1], j), v)
    return v


def _ref_descend(nav, j, lo, hi):
    """Highest cursor on the path from the root to text position ``j`` whose
    fragment lies inside [lo, hi)."""
    ln = nav.g.table.explen
    v = (0, nav.g.start, None)
    while v[0] < lo or v[0] + ln[v[1]] > hi:
        v = (*_ref_child(nav, v[0], v[1], j), v)
    return v


def ref_leaf(nav, j, k=0):
    """Level-``k`` cursor over text position ``j``, descended from the root."""
    return _ref_down(nav, (0, nav.g.start, None), j, k)


def ref_leaves(nav, j, j2):
    """Terminal cursors at ``j`` <= ``j2``, descended from the root together
    to the deepest node holding both, then apart."""
    if j == j2:
        v = ref_leaf(nav, j)
        return v, v
    u = _ref_descend(nav, j, 0, j2)
    return _ref_down(nav, u, j, 0), _ref_down(nav, u[2], j2, 0)


def ref_highest(nav, i, forward):
    """Highest cursor whose fragment starts (ends) at ``i``, descended from the root."""
    if forward:
        return _ref_descend(nav, i, i, nav.g.text_len)
    return _ref_descend(nav, i - 1, 0, i)


def ref_proxy_text(g, y, y2, pp, nav):
    """``ipm.proxy_text`` with its blocks walked by ``step`` and every
    expanded run trimmed on its own, on both sides.  The inline walk and its
    trim at the two ends must give an equal ``ProxyText`` and charge the
    same steps."""
    if y2 <= y:
        raise EmptyFragmentError("proxy text of an empty fragment")
    if not (0 <= y and y2 <= g.text_len):
        raise OutOfRangeError(f"fragment [{y}, {y2}) outside [0, {g.text_len})")
    t = g.table
    lvl, a0, a1, ln = t.level, t.arg0, t.arg1, t.explen
    level = pp.level
    m = y + (y2 - y) // 2

    # T[m]'s proxy-level node, then its level-(level+1) node by ``up``
    m_node = leaf(nav, m, level)
    v = up(nav, m_node, level)

    # the block of T[m] at level+1 and the blocks rules (a)-(c) keep beside it
    top = level + 1
    window = pp.sym_len + level - 1
    radius = 2 * level + 2
    blocks = [v]
    for forward in (False, True):
        cur = v
        held = 0
        for _ in range(radius):
            if held >= window or (cur[0] + ln[cur[1]] >= y2 if forward else cur[0] <= y):
                break
            cur = step(nav, cur, top, forward)
            blocks.append(cur)
            s = cur[1]
            if lvl[s] != top:
                held += 1
            else:
                held += a1[s] if top & 1 else 2  # a power, else a pair
        if not forward:
            blocks.reverse()
            held_back = held

    # index level-`level` symbols from m_node, which is symbol i of its
    # block's expansion; the symbol trim keeps indices in [-window, window]
    pos, s, _ = v
    off = m_node[0] - pos
    if not 0 <= off < ln[s]:
        raise InternalInvariantError("proxy-level ancestor of T[m] outside its block")
    if top & 1 and lvl[s] == top:
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
        elif top & 1:  # a power
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
                out[-1] = (sym, out[-1][1] + k)
            else:
                out.append((sym, k))
            exp_len += k * w
            sym_len += k
    return ProxyText(rle=tuple(out), text_start=text_start,
                     exp_len=exp_len, sym_len=sym_len)


def ref_from_columns(arg0, arg1, level, text_len):
    """``SymbolTable.from_columns`` as a per-record loop over the record
    rules, stated by kind: a terminal has ``arg1`` 0 and a codepoint in
    range; a power's one child and a pair's two are made before it, a power's
    exponent is at least 2, a pair's children differ, and a level lies above
    its children's; an expansion is at most ``text_len`` long; and one set
    rejects a production repeated under a new id.  The first fault in id
    order is raised."""
    explen = []
    seen = set()
    for sid, (b, c, lv) in enumerate(zip(arg0, arg1, level)):
        kind = POWER if lv & 1 else PAIR if lv else TERMINAL
        children = {TERMINAL: [], POWER: [b], PAIR: [b, c]}[kind]
        unknown = [x for x in children if not 0 <= x < sid]
        fault = None
        if kind == TERMINAL and c:
            raise IndexFormatError(f"terminal with arg1 {c} at symbol {sid}")
        if kind == TERMINAL and not 0 <= b < 0x110000:
            fault = f"codepoint {b} outside [0, 0x110000)"
        elif unknown:
            fault = f"symbol id {unknown[0]} not in table"
        elif kind == POWER and c < 2:
            fault = f"power exponent must be >= 2, got {c}"
        elif kind == PAIR and b == c:
            fault = f"pair children must differ, got {b} twice"
        elif kind == POWER and lv <= level[b]:
            fault = f"power level {lv} not above base level {level[b]}"
        elif kind == PAIR and (lv <= level[b] or lv <= level[c]):
            fault = f"pair level {lv} not above children levels {level[b]}, {level[c]}"
        else:
            e = (1 if kind == TERMINAL else c * explen[b] if kind == POWER
                 else explen[b] + explen[c])
            if e > text_len:
                fault = f"expansion length {e} exceeds text_len {text_len}"
        if fault is not None:
            raise IndexFormatError(f"invalid symbol {sid}: {fault}")
        if (kind, b, c) in seen:
            raise IndexFormatError(f"duplicate symbol {sid}")
        seen.add((kind, b, c))
        explen.append(e)
    table = SymbolTable.__new__(SymbolTable)
    table.arg0, table.arg1, table.level, table.explen = arg0, arg1, level, explen
    table.frontiers = {}
    return table


_MASK64 = (1 << 64) - 1


def ref_mix64(z: int) -> int:
    """splitmix64 finalizer; a 64-bit bijective scramble."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def ref_coin(seed: int, level: int, rank: int) -> bool:
    """The coin of ``rank`` in round ``level``, one rank at a time:
    ``builder._coins`` must give byte ``rank`` equal to this."""
    h = ref_mix64(seed ^ ref_mix64((level << 32) ^ rank))
    return bool(h & 1)


# Reference shrinks: the index-scanning loops that ``builder.shrink_rle`` and
# ``builder.shrink_pc`` replaced.  On equal columns the one-pass shrinks must
# return the same level string and append the same records in the same
# order.  The references hash-cons build-wide, through a lookup of every
# production in the columns, where the builder keeps one dict per round:
# equal columns also check that no round makes a production of an earlier
# round again.

def _productions(arg0, arg1, level):
    """(level parity, arg0, arg1) -> id of every pair (parity 0) and power (1)
    in the columns."""
    return {(lv & 1, b, c): sid for sid, (b, c, lv) in enumerate(zip(arg0, arg1, level)) if lv}


def _ref_make(ids, key, arg0, arg1, level, k):
    """The id of production ``key``, appended at level ``k`` if it is new."""
    if key not in ids:
        ids[key] = len(level)
        arg0.append(key[1])
        arg1.append(key[2])
        level.append(k)
    return ids[key]


def ref_shrink_rle(s, arg0, arg1, level):
    """``builder.shrink_rle`` as an index scan: a run is found by an inner
    loop from its first symbol."""
    k = s.level + 1
    if k % 2 == 0:
        raise BadLevelError(f"run compression after level {s.level}: needs an odd round")
    syms = s.symbols
    ids = _productions(arg0, arg1, level)
    out = []
    i = 0
    n = len(syms)
    while i < n:
        j = i + 1
        while j < n and syms[j] == syms[i]:
            j += 1
        if j - i >= 2:
            out.append(_ref_make(ids, (1, syms[i], j - i), arg0, arg1, level, k))
        else:
            out.append(syms[i])
        i = j
    return LevelString(k, out)


def ref_shrink_pc(s, left, arg0, arg1, level):
    """``builder.shrink_pc`` as the greedy index scan: a left symbol merges
    with the next symbol when that one is not left."""
    k = s.level + 1
    if k % 2 == 1:
        raise BadLevelError(f"pair compression after level {s.level}: needs an even round")
    syms = s.symbols
    ids = _productions(arg0, arg1, level)
    out = []
    i = 0
    n = len(syms)
    while i < n:
        a = syms[i]
        if a in left and i + 1 < n and syms[i + 1] not in left:
            out.append(_ref_make(ids, (0, a, syms[i + 1]), arg0, arg1, level, k))
            i += 2
        else:
            out.append(a)
            i += 1
    return LevelString(k, out)
