"""Shared corpus generation for the test suite."""

from __future__ import annotations

import random

from rlslp.grammar import PAIR, TERMINAL
from rlslp.navigator import ahead, first_child, jump, leaf, up

ALPHABETS = (1, 2, 4, 26)


def random_text(rng: random.Random, max_len: int, sigma: int, min_len: int = 1) -> str:
    length = rng.randint(min_len, max_len)
    return "".join(chr(ord("a") + rng.randrange(sigma)) for _ in range(length))


def text_corpus(count: int, max_len: int, seed: int = 0):
    """Yield (text, build_seed) pairs cycling through the alphabet sizes."""
    rng = random.Random(seed)
    for i in range(count):
        sigma = ALPHABETS[i % len(ALPHABETS)]
        yield random_text(rng, max_len, sigma), seed * 10_000 + i


def random_ipm_pair(rng: random.Random, n: int) -> tuple[int, int, int, int]:
    """A valid (x, x2, y, y2) with 1 <= |X| and |X| <= |Y| < 2|X|."""
    xl = rng.randint(1, n)
    x = rng.randint(0, n - xl)
    yl = rng.randint(xl, min(2 * xl - 1, n))
    y = rng.randint(0, n - yl)
    return x, x + xl, y, y + yl


def write_v1_index(g, path) -> None:
    """Write ``g`` in index format version 1, which the loader still reads:
    an ASCII header line, then one line per symbol in id order."""
    t = g.table
    lines = [f"RLSLP1 version=1 seed={g.seed} rounds={g.rounds} "
             f"text_len={g.text_len} symbols={len(t)} start={g.start}"]
    for sid, k in enumerate(t.kind):
        if k == TERMINAL:
            lines.append(f"{sid} T {t.arg0[sid]}")
        else:
            tag = "P" if k == PAIR else "R"
            lines.append(f"{sid} {tag} {t.arg0[sid]} {t.arg1[sid]} {t.level[sid]}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Reference moves: ``climb``, ``step`` and ``pseq``'s block pop as chains of
# the single moves ``ahead``, ``jump``, ``first_child`` and ``up``.  The
# fused moves must return the same cursors and charge the same steps.

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
        while nav.t.level[v[1]] > k:
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
    lo, hi = leaf(nav, x_start), leaf(nav, x_end - 1)
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
