"""Per-level boundary-block decomposition of a text fragment.

Virtually recompressing a fragment X in isolation pops, at each level k, a
leading block L_k and a trailing block R_k off the shrinking symbol string.
Each popped block is a power of a single symbol, so the whole
decomposition is run-length encoded as ``(sym, exponent)`` tuples, and
concatenating the expansions of L_0..L_q, R_q..R_0 reconstitutes X.  The
computation walks the two boundary nodes of the fragment's induced
occurrence level by level, in O(r) cursor moves, without materializing any
level string.  Each level lifts both boundary nodes, reads L_k and R_k
off their cursors, and moves each on to the next character of the next
level's string, all inline in one loop: the leading node climbs and
descends forward only, the trailing node backward only, as
``rlslp.navigator`` charges those moves.
"""

from __future__ import annotations

from .errors import EmptyFragmentError, InternalInvariantError, OutOfRangeError
from .grammar import Grammar, Record
from .navigator import Navigator, leaves


Run = tuple  # (sym, exponent): the run sym^exponent of a run-length encoding


class PoppedSeq(Record):
    """Popped sequence of a fragment, decomposed by level.

    ``left[k]``/``right[k]`` hold L_k/R_k as ``(sym, exponent)`` runs (None when empty).
    ``left_exp[k]`` is the expansion length of L_0..L_{k-1}; ``right_exp[k]``
    that of R_{k-1}..R_0 (both indexed 0..q+1).
    """

    __slots__ = ("left", "right", "q", "left_exp", "right_exp")

    def runs(self) -> list[Run]:
        """The run-length encoding of L_0..L_q, R_q..R_0 (no merging needed
        for expansion purposes; adjacent equal runs may occur at the seam)."""
        out = [r for r in self.left if r is not None]
        out.extend(r for r in reversed(self.right) if r is not None)
        return out


def pseq(g: Grammar, x_start: int, x_end: int, nav: Navigator | None = None) -> PoppedSeq:
    """Popped sequence of the fragment T[x_start, x_end) in O(r) node steps.

    Each level pops its leading block walking forward and its trailing
    block walking backward.  Both boundary moves are inline: ``lo`` climbs
    and descends forward only, ``hi`` backward only, each to the next
    level's string as ``rlslp.navigator`` describes.  The moves charge one
    local counter, added to ``nav.steps`` once, and the expansion offsets
    are summed as the blocks are popped.  X's two end characters are
    reached by one shared descent from the root (``leaves``).
    """
    if not (0 <= x_start and x_end <= g.text_len):
        raise OutOfRangeError(f"fragment [{x_start}, {x_end}) outside [0, {g.text_len})")
    if x_end <= x_start:
        raise EmptyFragmentError("popped sequence of an empty fragment")
    if nav is None:
        nav = Navigator(g)
    lvl, a0, a1, ln = nav.cols
    lo, hi = leaves(nav, x_start, x_end - 1)

    left: list[Run | None] = []
    right: list[Run | None] = []
    left_exp = [0]
    right_exp = [0]
    c = 0
    for k in range(g.rounds + 2):
        # lo and hi are the boundary nodes of the shrunken fragment at level k;
        # ``up`` inline: their level-(k+1) nodes, a power (k even), a pair (k odd) or themselves
        lo_p = lo if lo[2] is None or lvl[lo[2][1]] != k + 1 else lo[2]
        hi_p = hi if hi[2] is None or lvl[hi[2][1]] != k + 1 else hi[2]
        c += 2
        # One block spans the level-k string unless L_k is empty: lo is the
        # left child of a pair (k is odd) of two distinct symbols and the
        # string is longer than one symbol.  Then pop it all on the left and stop.
        if lo_p[0] == hi_p[0] and not (k & 1 and lo_p is not lo and lo[0] == lo_p[0]
                                       and lo[0] != hi[0]):
            if lo_p is not lo:  # lo and hi are siblings: two ``ahead`` moves
                c += 2
            e = (hi[0] - lo[0]) // ln[lo[1]] + 1
            left.append((lo[1], e))
            left_exp.append(left_exp[-1] + e * ln[lo[1]])
            right.append(None)
            right_exp.append(right_exp[-1])
            break

        # Pop L_k at lo and R_k at hi: a subdivided edge's node alone, nothing at a pair's
        # first child in the direction of travel, else the node and its siblings ahead.
        # Each popped block's node then moves on to the next character of level k+1.
        if lo_p is lo:
            l_run = (lo[1], 1)
            pos, s, par = lo
        elif k & 1 and lo[0] == lo_p[0]:
            l_run = None
            lo_next = lo_p
        else:
            c += 1  # ``ahead``
            l_run = (lo[1], (lo_p[0] + ln[lo_p[1]] - lo[0]) // ln[lo[1]])
            pos, s, par = lo_p
        if l_run is not None:
            # climb forward to the sibling ahead of the nearest ancestor that has one
            while par is not None:
                c += 2
                ps = par[1]
                if lvl[ps] & 1:  # a power: a sibling unless s is its last copy
                    if pos + ln[s] < par[0] + ln[ps]:
                        pos += ln[s]
                        break
                elif pos == par[0]:  # a pair: the right child
                    pos, s = pos + ln[s], a1[ps]
                    break
                pos, s, par = par
            if par is None:
                lo_next = None
            else:  # first children down to level k+1
                lo_next = (pos, s, par)
                while lvl[s] > k + 1:
                    c += 1
                    s = a0[s]
                    lo_next = (pos, s, lo_next)
            left_exp.append(left_exp[-1] + l_run[1] * ln[l_run[0]])
        else:
            left_exp.append(left_exp[-1])

        if hi_p is hi:
            r_run = (hi[1], 1)
            pos, s, par = hi
        elif k & 1 and hi[0] != hi_p[0]:
            r_run = None
            hi_next = hi_p
        else:
            c += 1  # ``ahead``
            r_run = (hi[1], (hi[0] - hi_p[0]) // ln[hi[1]] + 1)
            pos, s, par = hi_p
        if r_run is not None:
            # climb backward to the sibling before the nearest ancestor that has one
            while par is not None:
                c += 2
                ps = par[1]
                if lvl[ps] & 1:  # a power: a sibling unless s is its first copy
                    if pos > par[0]:
                        pos -= ln[s]
                        break
                elif pos != par[0]:  # a pair: the left child
                    pos, s = par[0], a0[ps]
                    break
                pos, s, par = par
            if par is None:
                hi_next = None
            else:  # last children down to level k+1
                hi_next = (pos, s, par)
                while lvl[s] > k + 1:
                    c += 1
                    b = a0[s]
                    if lvl[s] & 1:  # a power: its last copy
                        pos += ln[s] - ln[b]
                    else:
                        pos += ln[b]
                        b = a1[s]
                    s = b
                    hi_next = (pos, s, hi_next)
            right_exp.append(right_exp[-1] + r_run[1] * ln[r_run[0]])
        else:
            right_exp.append(right_exp[-1])
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
    nav.steps += c

    if left_exp[-1] + right_exp[-1] != x_end - x_start:
        raise InternalInvariantError("popped sequence does not expand to the fragment")
    return PoppedSeq(left=left, right=right, q=k, left_exp=left_exp, right_exp=right_exp)
