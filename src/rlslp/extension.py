"""Longest common extension queries by recursive parse-tree descent.

A query starts from the highest nodes whose fragments begin at the two
positions and repeatedly either descends into the wider node, advances
both nodes past a shared symbol, or jumps over a shared sibling run.  The
reverse query runs the same walk backward, from the highest nodes whose
fragments end at the two positions.
"""

from __future__ import annotations

from .errors import OutOfRangeError
from .grammar import Grammar
from .navigator import Navigator, ahead, first_child, highest, jump, step


def _extension(g: Grammar, i: int, i2: int, forward: bool, nav: Navigator | None) -> int:
    n = g.text_len
    if not (0 <= i <= n and 0 <= i2 <= n):
        raise OutOfRangeError(f"positions ({i}, {i2}) outside [0, {n}]")
    end = n if forward else 0
    if i == end or i2 == end:
        return 0
    if nav is None:
        nav = Navigator(g)
    ln = g.table.explen
    top = g.table.level[g.start]  # a climb is a step at the root's level
    v = highest(nav, i, forward)
    v2 = highest(nav, i2, forward)
    total = 0
    while v is not None and v2 is not None:
        s = v[1]
        s2 = v2[1]
        if s == s2:
            d = min(ahead(nav, v, forward), ahead(nav, v2, forward))
            if d >= 1:
                total += d * ln[s]
                v = jump(nav, v, d, forward)
                v2 = jump(nav, v2, d, forward)
            else:
                total += ln[s]
                v = step(nav, v, top, forward)
                v2 = step(nav, v2, top, forward)
        else:
            l1 = ln[s]
            l2 = ln[s2]
            if l1 == 1 and l2 == 1:
                break
            if l1 >= l2:
                v = first_child(nav, v, forward)
            if l2 >= l1:
                v2 = first_child(nav, v2, forward)
    return total


def lce(g: Grammar, i: int, i2: int, nav: Navigator | None = None) -> int:
    """Length of the longest common prefix of T[i..] and T[i2..]."""
    return _extension(g, i, i2, True, nav)


def rev_lce(g: Grammar, i: int, i2: int, nav: Navigator | None = None) -> int:
    """Length of the longest common suffix of T[..i) and T[..i2)."""
    return _extension(g, i, i2, False, nav)
