"""Longest common extension queries by recursive parse-tree descent.

A query starts from the highest nodes whose fragments begin at the two
positions and repeatedly either descends into the wider node, advances
both nodes past a shared symbol, or jumps over a shared sibling run.  The
reverse query runs the same walk backward, from the highest nodes whose
fragments end at the two positions.  Equal positions need no walk: the
answer is the suffix (prefix) length, charged no step.

The walk is one loop in one frame: after the two ``highest`` descents,
each cursor is held as three locals, and its moves (``ahead``, ``jump``,
``first_child`` and the climb) are done inline on the navigator's columns.
They charge what the single moves charge: one per sibling count, jump and
first child, and two per parent a climb tests; the total is added to
``Navigator.steps`` once per query.
"""

from __future__ import annotations

from .errors import OutOfRangeError
from .grammar import Grammar
from .navigator import Navigator, highest


def _extension(g: Grammar, i: int, i2: int, forward: bool, nav: Navigator | None) -> int:
    nav = Navigator.of(g, nav)
    n = g.text_len
    if not (0 <= i <= n and 0 <= i2 <= n):
        raise OutOfRangeError(f"positions ({i}, {i2}) outside [0, {n}]")
    if i == i2:  # a suffix (prefix) with itself: no walk
        return n - i if forward else i
    end = n if forward else 0
    if i == end or i2 == end:
        return 0
    lvl, a0, a1, ln = nav.cols
    p, s, par = highest(nav, i, forward)
    p2, s2, par2 = highest(nav, i2, forward)
    total = c = 0
    while True:
        if s == s2:
            w = ln[s]
            # ``ahead``: the siblings of each cursor in the direction of travel
            a = a2 = 0
            if par is not None:
                c += 1
                ps = par[1]
                if lvl[ps] & 1:  # a power
                    a = (par[0] + ln[ps] - p) // w - 1 if forward else (p - par[0]) // w
                elif (p == par[0]) == forward:  # a pair's first child
                    a = 1
            if par2 is not None:
                c += 1
                ps = par2[1]
                if lvl[ps] & 1:
                    a2 = (par2[0] + ln[ps] - p2) // w - 1 if forward else (p2 - par2[0]) // w
                elif (p2 == par2[0]) == forward:
                    a2 = 1
            d = a if a < a2 else a2
            if d:  # ``jump`` both over d shared siblings; a pair's is its other child
                total += d * w
                c += 2
                if lvl[par[1]] & 1:
                    p += d * w if forward else -d * w
                elif forward:
                    p, s = p + w, a1[par[1]]
                else:
                    s = a0[par[1]]
                    p -= ln[s]
                if lvl[par2[1]] & 1:
                    p2 += d * w if forward else -d * w
                elif forward:
                    p2, s2 = p2 + w, a1[par2[1]]
                else:
                    s2 = a0[par2[1]]
                    p2 -= ln[s2]
                continue
            total += w
            # climb both to the sibling ahead of the nearest ancestor that has one
            while par is not None:
                c += 2
                ps = par[1]
                if lvl[ps] & 1:  # a power: a sibling unless s is its last (first) copy
                    if p + ln[s] < par[0] + ln[ps] if forward else p > par[0]:
                        p += ln[s] if forward else -ln[s]
                        break
                elif (p == par[0]) == forward:  # a pair: the other child
                    p, s = (p + ln[s], a1[ps]) if forward else (par[0], a0[ps])
                    break
                p, s, par = par
            while par2 is not None:
                c += 2
                ps = par2[1]
                if lvl[ps] & 1:
                    if p2 + ln[s2] < par2[0] + ln[ps] if forward else p2 > par2[0]:
                        p2 += ln[s2] if forward else -ln[s2]
                        break
                elif (p2 == par2[0]) == forward:
                    p2, s2 = (p2 + ln[s2], a1[ps]) if forward else (par2[0], a0[ps])
                    break
                p2, s2, par2 = par2
            if par is None or par2 is None:  # a climb left the text
                break
        else:
            w = ln[s]
            w2 = ln[s2]
            if w == 1 and w2 == 1:
                break
            # ``first_child`` of the wider cursor, or of both
            if w >= w2:
                c += 1
                par = (p, s, par)
                b = a0[s]
                if not forward:
                    if lvl[s] & 1:  # a power: its last copy
                        p += w - ln[b]
                    else:
                        p += ln[b]
                        b = a1[s]
                s = b
            if w2 >= w:
                c += 1
                par2 = (p2, s2, par2)
                b = a0[s2]
                if not forward:
                    if lvl[s2] & 1:
                        p2 += w2 - ln[b]
                    else:
                        p2 += ln[b]
                        b = a1[s2]
                s2 = b
    nav.steps += c
    return total


def lce(g: Grammar, i: int, i2: int, nav: Navigator | None = None) -> int:
    """Length of the longest common prefix of T[i..] and T[i2..]."""
    return _extension(g, i, i2, True, nav)


def rev_lce(g: Grammar, i: int, i2: int, nav: Navigator | None = None) -> int:
    """Length of the longest common suffix of T[..i) and T[..i2)."""
    return _extension(g, i, i2, False, nav)
