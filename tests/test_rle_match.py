import random

import pytest
from hypothesis import given, settings, strategies as st

from rlslp.errors import EmptyPatternError
from rlslp.ipm import rle_match
from rlslp.oracle import naive_rle_match


def _runs(*pairs):
    return list(pairs)


def _positions(progs):
    out = []
    for pr in progs:
        out.extend(pr.positions())
    return sorted(out)


def test_single_run_inside_longer_run():
    # a^3 inside b a^5 b^2 -> starts 1..3
    progs = rle_match(_runs((0, 3)), _runs((1, 1), (0, 5), (1, 2)))
    assert _positions(progs) == [1, 2, 3]
    assert len(progs) == 1 and progs[0].diff == 1


def test_exact_match():
    p = _runs((0, 2), (1, 1))
    progs = rle_match(p, p)
    assert _positions(progs) == [0]
    assert progs[0].count == 1


def test_alternating():
    p = _runs((0, 1), (1, 1))
    s = _runs((0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1))
    progs = rle_match(p, s)
    assert _positions(progs) == [0, 2, 4]
    assert len(progs) == 1 and progs[0].diff == 2 and progs[0].count == 3


def test_empty_pattern_rejected():
    with pytest.raises(EmptyPatternError):
        rle_match([], _runs((0, 1)))


def _random_runs(rng, max_runs, nsyms, max_exp):
    runs = []
    last = None
    for _ in range(rng.randint(1, max_runs)):
        s = rng.randrange(nsyms)
        if s == last:
            continue
        runs.append((s, rng.randint(1, max_exp)))
        last = s
    return runs


def test_random_against_naive_with_bounds():
    rng = random.Random(61)
    for _ in range(3000):
        pruns = _random_runs(rng, 4, 3, 5)
        sruns = _random_runs(rng, 14, 3, 5)
        progs = rle_match(pruns, sruns)
        assert _positions(progs) == naive_rle_match(pruns, sruns)
        plen = sum(e for _, e in pruns)
        slen = sum(e for _, e in sruns)
        assert len(progs) <= min(len(sruns), slen // plen) if progs else True
        for pr in progs:
            assert pr.diff <= plen


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_hypothesis_random_rle(data):
    sym = st.integers(0, 2)
    exp = st.integers(1, 4)
    raw_p = data.draw(st.lists(st.tuples(sym, exp), min_size=1, max_size=4))
    raw_s = data.draw(st.lists(st.tuples(sym, exp), min_size=1, max_size=10))

    def normalize(raw):
        runs = []
        for s, e in raw:
            if runs and runs[-1][0] == s:
                runs[-1] = (s, runs[-1][1] + e)
            else:
                runs.append((s, e))
        return runs

    pruns, sruns = normalize(raw_p), normalize(raw_s)
    assert _positions(rle_match(pruns, sruns)) == naive_rle_match(pruns, sruns)
