"""Structured adversarial texts: heavy periodicity, sparse breaks, large runs."""

import random

import pytest

from rlslp import lce, rev_lce
from rlslp.builder import build
from rlslp.ipm import ipm_query
from rlslp.navigator import Navigator
from rlslp.oracle import naive_lce, naive_occ, naive_rev_lce


def fibonacci_word(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse(n):
    s = "a"
    flip = str.maketrans("ab", "ba")
    while len(s) < n:
        s += s.translate(flip)
    return s[:n]


STRUCTURED = [
    "a" * 500,
    ("ab" * 300)[:511],
    "a" * 200 + "b" + "a" * 200,
    fibonacci_word(512),
    thue_morse(512),
    ("abcab" * 120)[:512],
    "a" * 255 + "b" * 255,
    ("aab" * 200)[:509],
]


@pytest.mark.parametrize("text", STRUCTURED, ids=lambda t: t[:12] + f"...len{len(t)}")
def test_structured_ipm_and_lce(text):
    g = build(text, 17)
    n = len(text)
    nav = Navigator(g)
    rng = random.Random(n)
    for _ in range(300):
        i, i2 = rng.randint(0, n), rng.randint(0, n)
        assert lce(g, i, i2, nav) == naive_lce(text, i, i2)
        assert rev_lce(g, i, i2, nav) == naive_rev_lce(text, i, i2)
    for _ in range(250):
        xl = rng.randint(1, n)
        x = rng.randint(0, n - xl)
        yl = rng.randint(xl, min(2 * xl - 1, n))
        y = rng.randint(0, n - yl)
        before = nav.steps
        occ = ipm_query(g, x, x + xl, y, y + yl, nav)
        assert nav.steps - before <= 512 * (g.rounds + 1)
        assert list(occ.positions()) == naive_occ(text, x, x + xl, y, y + yl), \
            ((x, x + xl), (y, y + yl))


def test_large_unary_text_progressions():
    # the answer progression can be huge; the query must not enumerate it
    n = 1 << 15
    g = build("a" * n, 3)
    nav = Navigator(g)
    occ = ipm_query(g, 0, n // 2, 0, n - 1, nav)
    assert (occ.start, occ.diff, occ.count) == (0, 1, n - 1 - n // 2 + 1)
    assert nav.steps <= 512 * (g.rounds + 1)


def test_large_periodic_text_sampled():
    n = 1 << 14
    rng = random.Random(5)
    for text in (("ab" * n)[:n], ("aaab" * n)[:n]):
        g = build(text, 9)
        for _ in range(60):
            xl = rng.randint(1, n)
            x = rng.randint(0, n - xl)
            yl = rng.randint(xl, min(2 * xl - 1, n))
            y = rng.randint(0, n - yl)
            occ = ipm_query(g, x, x + xl, y, y + yl)
            assert list(occ.positions()) == naive_occ(text, x, x + xl, y, y + yl)


def test_random_larger_texts_sampled():
    rng = random.Random(23)
    for sigma in (2, 4):
        text = "".join(chr(ord("a") + rng.randrange(sigma)) for _ in range(2048))
        g = build(text, sigma)
        n = len(text)
        for _ in range(150):
            xl = rng.randint(1, n)
            x = rng.randint(0, n - xl)
            yl = rng.randint(xl, min(2 * xl - 1, n))
            y = rng.randint(0, n - yl)
            occ = ipm_query(g, x, x + xl, y, y + yl)
            assert list(occ.positions()) == naive_occ(text, x, x + xl, y, y + yl)
