"""Per-level boundary-block decomposition of a text fragment.

Virtually recompressing a fragment X in isolation pops, at each level k, a
leading block L_k and a trailing block R_k off the shrinking symbol string.
Each popped block is a power of a single symbol, so the whole
decomposition is run-length encoded as ``(sym, exponent)`` tuples, and
concatenating the expansions of L_0..L_q, R_q..R_0 reconstitutes X.  The
computation walks the two boundary nodes of the fragment's induced
occurrence level by level, in O(r) cursor moves, without materializing any
level string.  Each level lifts both boundary nodes inline, reads L_k and
R_k off their cursors, and moves each on with one ``step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import EmptyFragmentError, InternalInvariantError, OutOfRangeError
from .grammar import Grammar
from .navigator import Navigator, leaf, step


Run = tuple  # (sym, exponent): the run sym^exponent of a run-length encoding


@dataclass
class PoppedSeq:
    """Popped sequence of a fragment, decomposed by level.

    ``left[k]``/``right[k]`` hold L_k/R_k as ``(sym, exponent)`` runs (None when empty).
    ``left_exp[k]`` is the expansion length of L_0..L_{k-1}; ``right_exp[k]``
    that of R_{k-1}..R_0 (both indexed 0..q+1).
    """
    left: list[Run | None]
    right: list[Run | None]
    q: int
    left_exp: list[int]
    right_exp: list[int]

    def runs(self) -> list[Run]:
        """The run-length encoding of L_0..L_q, R_q..R_0 (no merging needed
        for expansion purposes; adjacent equal runs may occur at the seam)."""
        out = [r for r in self.left if r is not None]
        out.extend(r for r in reversed(self.right) if r is not None)
        return out


def pseq(g: Grammar, x_start: int, x_end: int, nav: Navigator | None = None) -> PoppedSeq:
    """Popped sequence of the fragment T[x_start, x_end) in O(r) node steps.

    Each level pops its leading block walking forward and its trailing
    block walking backward, so each boundary walk is one chain of ``up``
    and ``step`` moves (the ``up`` and ``ahead`` moves inline).
    """
    if not (0 <= x_start and x_end <= g.text_len):
        raise OutOfRangeError(f"fragment [{x_start}, {x_end}) outside [0, {g.text_len})")
    if x_end <= x_start:
        raise EmptyFragmentError("popped sequence of an empty fragment")
    if nav is None:
        nav = Navigator(g)
    explen, level = g.table.explen, g.table.level
    lo = leaf(nav, x_start)
    hi = leaf(nav, x_end - 1)

    left: list[Run | None] = []
    right: list[Run | None] = []
    for k in range(g.rounds + 2):
        # lo and hi are the boundary nodes of the shrunken fragment at level k;
        # ``up`` inline: their level-(k+1) nodes, a power (k even), a pair (k odd) or themselves
        lo_p = lo if lo[2] is None or level[lo[2][1]] != k + 1 else lo[2]
        hi_p = hi if hi[2] is None or level[hi[2][1]] != k + 1 else hi[2]
        nav.steps += 2
        # One block spans the level-k string unless L_k is empty: lo is the
        # left child of a pair (k is odd) of two distinct symbols and the
        # string is longer than one symbol.  Then pop it all on the left and stop.
        if lo_p[0] == hi_p[0] and not (k & 1 and lo_p is not lo and lo[0] == lo_p[0]
                                       and lo[0] != hi[0]):
            if lo_p is not lo:  # lo and hi are siblings: two ``ahead`` moves
                nav.steps += 2
            left.append((lo[1], (hi[0] - lo[0]) // explen[lo[1]] + 1))
            right.append(None)
            break

        # Pop L_k at lo and R_k at hi: a subdivided edge's node alone, nothing at a pair's
        # first child in the direction of travel, else the node and its siblings ahead.
        if lo_p is lo:
            l_run, lo_next = (lo[1], 1), step(nav, lo, k + 1, True)
        elif k & 1 and lo[0] == lo_p[0]:
            l_run, lo_next = None, lo_p
        else:
            nav.steps += 1  # ``ahead``
            l_run = (lo[1], (lo_p[0] + explen[lo_p[1]] - lo[0]) // explen[lo[1]])
            lo_next = step(nav, lo_p, k + 1, True)
        if hi_p is hi:
            r_run, hi_next = (hi[1], 1), step(nav, hi, k + 1, False)
        elif k & 1 and hi[0] != hi_p[0]:
            r_run, hi_next = None, hi_p
        else:
            nav.steps += 1  # ``ahead``
            r_run = (hi[1], (hi[0] - hi_p[0]) // explen[hi[1]] + 1)
            hi_next = step(nav, hi_p, k + 1, False)
        left.append(l_run)
        right.append(r_run)
        if l_run is not None and r_run is not None and (
                lo_next is None or lo_next[0] == hi_p[0]):
            # both boundary blocks popped and they were adjacent: nothing remains
            break
        if lo_next is None or hi_next is None:
            raise InternalInvariantError("boundary walk left the text with symbols remaining")
        lo, hi = lo_next, hi_next
    else:
        raise InternalInvariantError("popped sequence exceeded the round count")

    left_exp = list(accumulate((r[1] * explen[r[0]] if r else 0 for r in left), initial=0))
    right_exp = list(accumulate((r[1] * explen[r[0]] if r else 0 for r in right), initial=0))
    if left_exp[-1] + right_exp[-1] != x_end - x_start:
        raise InternalInvariantError("popped sequence does not expand to the fragment")
    return PoppedSeq(left=left, right=right, q=k, left_exp=left_exp, right_exp=right_exp)
