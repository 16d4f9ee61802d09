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

The engine is three descents from the root, each charging two steps per
level descended to the ``Navigator`` it is given:

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

from .errors import OutOfRangeError
from .grammar import Grammar

Cursor = tuple  # (pos, sym, parent cursor or None)


class Navigator:
    """The grammar walked, its table's columns for the moves, and the step counter."""

    __slots__ = ("g", "cols", "steps")

    def __init__(self, g: Grammar):
        self.g = g
        t = g.table
        self.cols = (t.level, t.arg0, t.arg1, t.explen)
        self.steps = 0


def _descend(nav: Navigator, j: int, lo: int, hi: int) -> Cursor:
    """Highest cursor on the path to text position ``j`` whose fragment lies
    inside [lo, hi)."""
    lvl, a0, a1, ln = nav.cols
    s = nav.g.start
    pos = c = 0
    v = (0, s, None)
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
    from the root to the deepest node that holds both, then apart."""
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
