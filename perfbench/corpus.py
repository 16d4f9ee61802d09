"""Seeded texts, query streams and brute-force reference answers.

Nothing here imports the package under test: the benchmark generates every
input itself and checks every answer against the plain text.
"""

from __future__ import annotations

import math
import random

# A query is (op, args): op is "ipm", "lce" or "rev" and args are the
# positions passed after the grammar.


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    # str seeds go through sha512, so streams are stable across processes
    return random.Random(f"{workload}/{seed}/{stream}")


def random_text(rng: random.Random, n: int, sigma: int) -> str:
    return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz"[:sigma], k=n))


def _primitive(rng: random.Random, length: int, alphabet: str) -> str:
    while True:
        u = "".join(rng.choices(alphabet, k=length))
        if (u + u).find(u, 1) == length:
            return u


def tandem_text(rng: random.Random, n: int) -> tuple[str, list[tuple[int, int, int]]]:
    """Concatenated runs u^k, u random primitive over 4 letters with |u| in
    1..48, 2048 <= |u^k| <= 4096 (but the last run, cut at n).

    Returns the text and its runs as (start, end, period), cut at n.
    """
    parts: list[str] = []
    runs: list[tuple[int, int, int]] = []
    periods: list[int] = []
    pos = 0
    while pos < n:
        # each period once per 48 runs, runs of at least 2048 letters: the
        # symbol count, which scales build and load, varies little by seed
        if not periods:
            periods = list(range(1, 49))
            rng.shuffle(periods)
        p = periods.pop()
        k = rng.randint(-(-2048 // p), 4096 // p)
        end = min(n, pos + p * k)
        parts.append(_primitive(rng, p, "abcd") * k)
        runs.append((pos, end, p))
        pos = end
    return "".join(parts)[:n], runs


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(2 ** rng.uniform(math.log2(lo), math.log2(hi + 1))))


def _ipm_window(rng: random.Random, n: int, x: int, xl: int, cover: bool) -> tuple:
    """An IPM query for X = [x, x+xl): |X| <= |Y| < 2|X|, Y over X if ``cover``."""
    yl = rng.randint(xl, min(2 * xl - 1, n))
    if cover:
        y = rng.randint(max(0, x + xl - yl), min(x, n - yl))
    else:
        y = rng.randrange(n - yl + 1)
    return ("ipm", (x, x + xl, y, y + yl))


def ipm_random_queries(rng: random.Random, n: int):
    """IPM only: |X| log-uniform in [1, 2^14], Y over X's own occurrence half the time."""
    while True:
        xl = _log_uniform(rng, 1, min(n, 1 << 14))
        x = rng.randrange(n - xl + 1)
        yield _ipm_window(rng, n, x, xl, rng.random() < 0.5)


def periodic_queries(rng: random.Random, n: int, runs: list, ipm_share: float):
    """LCE and rev-LCE, half of them at offsets that are multiples of the local
    period, plus a share of IPM queries whose X lies inside a run."""
    long_runs = [r for r in runs if r[1] - r[0] > 2 * r[2]]
    while True:
        u = rng.random()
        if u < ipm_share:
            start, end, p = rng.choice(long_runs)
            xl = _log_uniform(rng, p + 1, end - start)
            x = rng.randint(start, end - xl)
            yield _ipm_window(rng, n, x, xl, rng.random() < 0.5)
            continue
        op = "lce" if rng.random() < 0.5 else "rev"
        if rng.random() < 0.5:
            start, end, p = rng.choice(long_runs)
            if op == "lce":
                i = rng.randrange(start, end - p)
                j = i + p * rng.randint(1, (end - 1 - i) // p)
            else:
                i = rng.randint(start + 1, end - p)
                j = i + p * rng.randint(1, (end - i) // p)
            if rng.random() < 0.5:
                i, j = j, i
        else:
            i, j = rng.randint(0, n), rng.randint(0, n)
        yield (op, (i, j))


def mixed_queries(rng: random.Random, n: int, ipm_share: float):
    """Random-position LCE/rev-LCE with a share of IPM queries as in ipm-random."""
    ipm = ipm_random_queries(rng, n)
    while True:
        if rng.random() < ipm_share:
            yield next(ipm)
        else:
            yield ("lce" if rng.random() < 0.5 else "rev", (rng.randint(0, n), rng.randint(0, n)))


class Reference:
    """Brute-force answers over the plain text."""

    def __init__(self, text: str):
        self.text = text
        self.rtext = text[::-1]
        self.n = len(text)

    @staticmethod
    def _lce(t: str, i: int, j: int) -> int:
        lim = len(t) - max(i, j)
        lo, hi = 0, 1  # t[i:i+lo] == t[j:j+lo]; hi is unequal or past lim
        while hi <= lim and t[i:i + hi] == t[j:j + hi]:
            lo, hi = hi, 2 * hi
        hi = min(hi, lim + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if t[i:i + mid] == t[j:j + mid]:
                lo = mid
            else:
                hi = mid
        return lo

    def lce(self, i: int, j: int) -> int:
        return self._lce(self.text, i, j)

    def rev(self, i: int, j: int) -> int:
        return self._lce(self.rtext, self.n - i, self.n - j)

    def ipm(self, x: int, x2: int, y: int, y2: int) -> tuple[int, int, int]:
        """Occurrences of T[x, x2) inside T[y, y2) as (start, diff, count)."""
        t = self.text
        pat = t[x:x2]
        pos = []
        k = t.find(pat, y, y2)
        while k != -1:
            pos.append(k)
            k = t.find(pat, k + 1, y2)
        return progression(pos)

    def answer(self, op: str, args: tuple):
        if op == "ipm":
            return self.ipm(*args)
        if op == "lce":
            return self.lce(*args)
        return self.rev(*args)


def progression(pos: list[int]) -> tuple[int, int, int] | None:
    """Sorted positions as the (start, diff, count) triple the package returns,
    with diff 1 when count <= 1; None if they are not one progression."""
    if not pos:
        return (0, 1, 0)
    if len(pos) == 1:
        return (pos[0], 1, 1)
    d = pos[1] - pos[0]
    if any(b - a != d for a, b in zip(pos, pos[1:])):
        return None
    return (pos[0], d, len(pos))
