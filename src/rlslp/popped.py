"""Per-level boundary-block decomposition of a text fragment.

Virtually recompressing a fragment X in isolation pops, at each level k, a
leading block and a trailing block off the shrinking symbol string.
Each popped block is a power of a single symbol, so the whole
decomposition is run-length encoded, and concatenating the expansions of
L_0..L_q, R_q..R_0 reconstitutes X.  The computation walks the two
boundary nodes of the fragment's induced occurrence level by level, in
O(r) cursor moves, without materializing any level string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyFragmentError, OutOfRangeError
from .grammar import PAIR, Grammar
from .navigator import Navigator, ahead, leaf, step, up


class Run(NamedTuple):
    """A maximal run ``sym^exponent`` inside a run-length encoded sequence."""
    sym: int
    exponent: int


@dataclass
class PoppedSeq:
    """Popped sequence of a fragment, decomposed by level.

    ``left[k]``/``right[k]`` hold L_k/R_k as single runs (None when empty).
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

    The left boundary only walks forward and the right boundary only
    backward, so each walk is one chain of ``up`` and ``step`` moves.
    """
    if not (0 <= x_start and x_end <= g.text_len):
        raise OutOfRangeError(f"fragment [{x_start}, {x_end}) outside [0, {g.text_len})")
    if x_end <= x_start:
        raise EmptyFragmentError("popped sequence of an empty fragment")
    if nav is None:
        nav = Navigator(g)
    kind = g.table.kind
    explen = g.table.explen
    lo = leaf(nav, x_start)
    hi = leaf(nav, x_end - 1)

    left: list[Run | None] = []
    right: list[Run | None] = []
    left_exp = [0]
    right_exp = [0]
    k = 0
    while True:
        # lo and hi are the boundary nodes of the shrunken fragment at level k
        lo_p = up(nav, lo, k)
        hi_p = up(nav, hi, k)
        single = lo[0] == hi[0]  # the level-k string is one symbol
        lo_climbed = lo_p is not lo
        hi_climbed = hi_p is not hi
        # L_k is empty iff the leftmost block is a two-distinct-symbol pair
        # with lo as its left child, and the level-k string is longer than one symbol.
        l_empty = (lo_climbed and kind[lo_p[1]] == PAIR
                   and not single and lo[0] == lo_p[0])
        parents_same = lo_p[0] == hi_p[0]

        if not l_empty and parents_same:
            # the whole level-k string is a single block that is not a
            # two-distinct pair: pop it all on the left and stop
            e = ahead(nav, hi, False) - ahead(nav, lo, False) + 1 if lo_climbed else 1
            left.append(Run(lo[1], e))
            right.append(None)
            left_exp.append(left_exp[-1] + e * explen[lo[1]])
            right_exp.append(right_exp[-1])
            q = k
            break

        if l_empty:
            l_run = None
            lo_next = lo_p
        else:
            e = ahead(nav, lo, True) + 1 if lo_climbed else 1
            l_run = Run(lo[1], e)
            lo_next = step(nav, lo_p, k + 1, True)

        r_empty = hi_climbed and kind[hi_p[1]] == PAIR and hi[0] != hi_p[0]
        if r_empty:
            r_run = None
            hi_next = hi_p
        else:
            e = ahead(nav, hi, False) + 1 if hi_climbed else 1
            r_run = Run(hi[1], e)
            hi_next = step(nav, hi_p, k + 1, False)

        left.append(l_run)
        right.append(r_run)
        left_exp.append(left_exp[-1] + (l_run.exponent * explen[l_run.sym] if l_run else 0))
        right_exp.append(right_exp[-1] + (r_run.exponent * explen[r_run.sym] if r_run else 0))

        if l_run is not None and r_run is not None and (
                lo_next is None or lo_next[0] == hi_p[0]):
            # both boundary blocks popped and they were adjacent: nothing remains
            q = k
            break

        assert lo_next is not None and hi_next is not None
        lo, hi = lo_next, hi_next
        k += 1
        assert k <= g.rounds + 1, "popped sequence exceeded the round count"

    assert left_exp[-1] + right_exp[-1] == x_end - x_start
    return PoppedSeq(left=left, right=right, q=q, left_exp=left_exp, right_exp=right_exp)
