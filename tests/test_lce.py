import random

import pytest

from rlslp import lce, rev_lce
from rlslp.builder import build
from rlslp.errors import OutOfRangeError
from rlslp.navigator import Navigator
from rlslp.oracle import naive_lce, naive_rev_lce

from helpers import random_text, text_corpus


def test_identical_suffixes():
    g = build("abcde", 0)
    for i in range(6):
        assert lce(g, i, i) == 5 - i


def test_hand_cases():
    g = build("abab", 1)
    assert lce(g, 0, 2) == 2
    g2 = build("ab", 1)
    assert lce(g2, 0, 1) == 0


def test_rev_hand_cases():
    g = build("abab", 1)
    assert rev_lce(g, 4, 2) == 2
    for i in range(5):
        assert rev_lce(g, i, i) == i
        assert rev_lce(g, 0, i) == 0


def test_out_of_range():
    g = build("abc", 0)
    with pytest.raises(OutOfRangeError):
        lce(g, 0, 4)
    with pytest.raises(OutOfRangeError):
        rev_lce(g, -1, 0)


def test_oracle_equivalence_all_pairs_small():
    for text, seed in text_corpus(24, 48, seed=53):
        g = build(text, seed)
        n = len(text)
        for i in range(n + 1):
            for i2 in range(i, n + 1):
                want = naive_lce(text, i, i2)
                assert lce(g, i, i2) == want, (text, seed, i, i2)
                assert lce(g, i2, i) == want  # symmetry
                wantr = naive_rev_lce(text, i, i2)
                assert rev_lce(g, i, i2) == wantr, (text, seed, i, i2)
                assert rev_lce(g, i2, i) == wantr


def test_oracle_equivalence_all_pairs_one_large_text():
    rng = random.Random(61)
    text = random_text(rng, 256, 4, min_len=256)
    g = build(text, 61)
    n = len(text)
    for i in range(n + 1):
        for i2 in range(i, n + 1):
            assert lce(g, i, i2) == naive_lce(text, i, i2)
            assert rev_lce(g, i, i2) == naive_rev_lce(text, i, i2)


def test_step_bound():
    rng = random.Random(59)
    for trial in range(60):
        text = random_text(rng, 256, (1, 2, 4, 26)[trial % 4])
        g = build(text, trial)
        nav = Navigator(g)
        n = len(text)
        for _ in range(40):
            i, i2 = rng.randint(0, n), rng.randint(0, n)
            before = nav.steps
            lce(g, i, i2, nav)
            assert nav.steps - before <= 64 * (g.rounds + 1), (text, trial, i, i2)
            before = nav.steps
            rev_lce(g, i, i2, nav)
            assert nav.steps - before <= 64 * (g.rounds + 1), (text, trial, i, i2)
