"""Shared corpus generation for the test suite."""

from __future__ import annotations

import random

from rlslp.grammar import PAIR, TERMINAL

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
