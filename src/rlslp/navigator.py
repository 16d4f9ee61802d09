"""Cursor navigation over the implicit parse tree.

The parse tree is never materialized.  A cursor is an immutable tuple
``(pos, sym, parent)``: the text position where the node's fragment
starts, its symbol, and the parent's cursor (None at the root).  A cursor
is thereby a persistent stack of its ancestors: two walks from one node
share the ancestor chain and never interfere.

The uncompressed parse tree subdivides edges so that each character of
each level string is a node of its own.  Such a node is a cursor plus the
level ``k``, carried beside it as an int: the cursor of the parse-tree node
whose symbol was created at or below round k and whose parent's was
created above it.

Moves take ``forward``: True walks towards the end of the text, False
towards its start.  Positions are always plain text positions.

The top of the parse tree is the same for every query, so each grammar
keeps its descent frontier: the cursors, in text order and sharing their
ancestor chains, that the root reaches by expanding every pair longer than
B and every power whose base is longer than B, with B = max(1, n >> 8).
The expansion stops at a node of length at most B, at a terminal, and at
a power whose base is at most B, whose copies a descent skips by
arithmetic.  The nodes expanded at one depth are disjoint and longer than
B, so each depth holds fewer than 3n/B frontier cursors: F = 130 and 445
on the seed-1 texts of perfbench's periodic-mixed and ipm-random workloads
(n = 2^17).  The first ``Navigator`` of a (table, start symbol) builds the
frontier in one pass without recursion, in O(F), charged to no query, and
the table caches it: it is a function of the grammar alone.  The nodes
above the frontier are the ones the expansion expanded.

The engine is three descents, each charging the ``Navigator`` it is
given.  From a cursor above the frontier, a descent to text position j
jumps to the frontier cursor over j, found by bisection and charged one
step.  From there it climbs one step per ``up`` when the node it wants
lies at or above that cursor, and otherwise descends as from any other
cursor, two steps per level.  A descent whose start is already the node
it wants charges nothing.

- ``leaf(nav, j, k=0)`` stops at the level-k node over T[j] (the terminal
  for k = 0), so ``proxy_text`` reaches T[m]'s proxy-level node directly;
- ``leaves(nav, j, j2)`` descends once to the deepest node that holds both
  j <= j2 and from there once to each: ``pseq`` takes X's two ends so;
- ``highest(nav, i, forward)`` stops at the highest node whose fragment
  starts (ends) at i, where LCE starts.

Every other move is done inline by the query loops on ``Navigator.cols``,
which charge a local counter and add it to ``Navigator.steps`` once per
call, by these rules:

- a single move costs one step: ``up`` (the level-(k+1) node above a
  level-k node) in ``pseq`` and ``proxy_text``; ``ahead``, ``jump`` and
  ``first_child`` in LCE;
- a climb to the sibling ahead of a node or of its nearest ancestor that
  has one costs two per parent it tests (a sibling test, then the move);
- the descent after a climb, first (forward) or last (backward) children
  down to level k, costs one per level.

A climb and its descent take a level-k node to the next (forward) or
previous (backward) character of level string k; ``pseq`` and
``proxy_text`` walk their blocks that way.  The complexity tests read the
counter back per query.  Chains of ``up`` moves and of such walks in one
direction cost O(r + chain length) overall.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import ForeignNavigatorError, OutOfRangeError
from .grammar import Grammar

Cursor = tuple  # (pos, sym, parent cursor or None)

# B = max(1, n >> _SHIFT).  Sweep on seed 1 of perfbench's workloads
# (n = 2^17, first 3000 queries, one navigator each): F, the frontier's
# build time and the steps per query against descents from the root.
#
#   shift   periodic-mixed F, build, steps   ipm-random F, build, steps
#     6        125, 0.10 ms, x0.679            112, 0.07 ms, x0.925
#     8        130, 0.09 ms, x0.675            445, 0.32 ms, x0.902
#    10        130, 0.10 ms, x0.675           1765, 1.77 ms, x0.879
#    12       2478, 1.32 ms, x0.648           7043, 6.28 ms, x0.858
#
# 8 takes periodic-mixed's gain and most of ipm-random's for a build of a
# third of a millisecond; each further step of 2 quadruples F and the build
# for 2-3% fewer steps, and every one-shot query pays the build.
_SHIFT = 8


class Navigator:
    """The grammar walked, its table's columns for the moves, its descent
    frontier ``(B, starts, cursors)`` and the step counter."""

    __slots__ = ("g", "cols", "frontier", "steps")

    def __init__(self, g: Grammar):
        self.g = g
        t = g.table
        self.cols = (t.level, t.arg0, t.arg1, t.explen)
        front = t.frontiers.get(g.start)
        if front is None:  # concurrent first navigators build equal frontiers
            front = t.frontiers[g.start] = _frontier(self.cols, g.start)
        self.frontier = front
        self.steps = 0

    @classmethod
    def of(cls, g: Grammar, nav: Navigator | None) -> Navigator:
        """``nav``, or a new navigator of ``g`` when it is None.  A navigator
        of another table or start symbol raises ``ForeignNavigatorError``."""
        if nav is None:
            return cls(g)
        if nav.g is not g and (nav.g.table is not g.table or nav.g.start != g.start):
            raise ForeignNavigatorError("navigator made for another grammar")
        return nav


def _frontier(cols: tuple, start: int) -> tuple[int, list[int], list[Cursor]]:
    """``(B, starts, cursors)``: the descent frontier of ``start`` in text
    order, and each cursor's start position."""
    lvl, a0, a1, ln = cols
    bound = max(1, ln[start] >> _SHIFT)
    starts: list[int] = []
    tops: list[Cursor] = []
    stack = [(0, start, None)]
    while stack:
        v = stack.pop()
        pos, s, _ = v
        if lvl[s] & 1:  # a power: its copies, the last pushed first
            w = ln[a0[s]]
            if w > bound:
                stack.extend([(pos + i * w, a0[s], v) for i in range(a1[s] - 1, -1, -1)])
                continue
        elif ln[s] > bound:  # a pair (a terminal's length, 1, is at most B)
            b = a0[s]
            stack.append((pos + ln[b], a1[s], v))
            stack.append((pos, b, v))
            continue
        starts.append(pos)
        tops.append(v)
    return bound, starts, tops


def _descend(nav: Navigator, j: int, lo: int, hi: int) -> Cursor:
    """Highest cursor on the path to text position ``j`` whose fragment lies
    inside [lo, hi)."""
    lvl, a0, a1, ln = nav.cols
    s = nav.g.start
    if lo <= 0 and ln[s] <= hi:  # the root itself
        return (0, s, None)
    _, starts, tops = nav.frontier
    v = tops[bisect_right(starts, j) - 1]
    pos, s, par = v
    c = 0 if par is None else 1  # no jump when the frontier is the root
    if lo <= pos and pos + ln[s] <= hi:  # v or an ancestor: climb
        while par is not None and lo <= par[0] and par[0] + ln[par[1]] <= hi:
            v = par
            par = v[2]
            c += 1
        nav.steps += c
        return v
    while pos < lo or pos + ln[s] > hi:  # so s is not a terminal, which fits
        b = a0[s]
        if lvl[s] & 1:  # a power
            pos += (j - pos) // ln[b] * ln[b]
        elif j >= pos + ln[b]:  # a pair whose right child holds j
            pos += ln[b]
            b = a1[s]
        v = (pos, b, v)
        s = b
        c += 2
    nav.steps += c
    return v


def _down(nav: Navigator, v: Cursor, j: int, k: int) -> Cursor:
    """Level-``k`` cursor over text position ``j`` below ``v``, which holds it."""
    lvl, a0, a1, ln = nav.cols
    pos, s, _ = v
    c = 0
    if lvl[s] > k and (ln[a0[s]] if lvl[s] & 1 else ln[s]) > nav.frontier[0]:
        # v is above the frontier: jump to the frontier cursor over j
        _, starts, tops = nav.frontier
        v = tops[bisect_right(starts, j) - 1]
        pos, s, par = v
        c = 1
        if lvl[s] <= k:  # the level-k node is v or an ancestor: climb to it
            while lvl[par[1]] <= k:
                v = par
                par = v[2]
                c += 1
            nav.steps += c
            return v
    while lvl[s] > k:
        b = a0[s]
        if lvl[s] & 1:  # a power
            pos += (j - pos) // ln[b] * ln[b]
        elif j >= pos + ln[b]:  # a pair whose right child holds j
            pos += ln[b]
            b = a1[s]
        v = (pos, b, v)
        s = b
        c += 2
    nav.steps += c
    return v


def leaf(nav: Navigator, j: int, k: int = 0) -> Cursor:
    """Level-``k`` cursor over text position ``j`` (the terminal for k = 0),
    with its full ancestor chain."""
    n = nav.g.text_len
    if not (0 <= j < n):
        raise OutOfRangeError(f"position {j} outside [0, {n})")
    return _down(nav, (0, nav.g.start, None), j, k)


def leaves(nav: Navigator, j: int, j2: int) -> tuple[Cursor, Cursor]:
    """Terminal cursors at text positions ``j`` <= ``j2``, descended together
    to the deepest node that holds both, then apart."""
    n = nav.g.text_len
    if not (0 <= j <= j2 < n):
        raise OutOfRangeError(f"positions ({j}, {j2}) not in order inside [0, {n})")
    if j == j2:
        v = leaf(nav, j)
        return v, v
    # the highest node over j that ends before j2 is the child, on j's path,
    # of the deepest node holding both: no level is descended twice
    u = _descend(nav, j, 0, j2)
    return _down(nav, u, j, 0), _down(nav, u[2], j2, 0)


def highest(nav: Navigator, i: int, forward: bool) -> Cursor:
    """Highest cursor whose fragment starts at ``i`` (forward) or ends at
    ``i`` (backward); needs i < n forward and i > 0 backward."""
    if forward:
        return _descend(nav, i, i, nav.g.text_len)
    return _descend(nav, i - 1, 0, i)
