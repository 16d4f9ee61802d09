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

The engine is ``leaf`` and ``highest``, which descend from the root and
charge two steps per level to the ``Navigator`` they are given.  Every
other move is done inline by the query loops on ``Navigator.cols``, which
charge a local counter and add it to ``Navigator.steps`` once per call,
by these rules:

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


def leaf(nav: Navigator, j: int) -> Cursor:
    """Terminal cursor at text position ``j``, with its full ancestor chain."""
    n = nav.g.text_len
    if not (0 <= j < n):
        raise OutOfRangeError(f"position {j} outside [0, {n})")
    return _descend(nav, j, j, j + 1)


def highest(nav: Navigator, i: int, forward: bool) -> Cursor:
    """Highest cursor whose fragment starts at ``i`` (forward) or ends at
    ``i`` (backward); needs i < n forward and i > 0 backward."""
    if forward:
        return _descend(nav, i, i, nav.g.text_len)
    return _descend(nav, i - 1, 0, i)
