import pytest

from rlslp.builder import build
from rlslp.errors import OutOfRangeError
from rlslp.oracle import naive_lce, naive_occ, naive_pseq_levels, naive_rev_lce, naive_rle_match


def test_naive_occ_hand_cases():
    assert naive_occ("abaab", 0, 2, 0, 5) == [0, 3]
    assert naive_occ("abc", 0, 3, 0, 3) == [0]
    assert naive_occ("abc", 0, 3, 0, 2) == []
    assert naive_occ("aaaa", 1, 3, 0, 4) == [0, 1, 2]


def test_naive_occ_self_window():
    assert naive_occ("xyxy", 1, 3, 1, 3) == [1]


def test_naive_occ_errors():
    with pytest.raises(OutOfRangeError):
        naive_occ("ab", 0, 3, 0, 2)
    with pytest.raises(OutOfRangeError):
        naive_occ("ab", 0, 0, 0, 2)


def test_naive_rle_match():
    # a^2 b inside b a^3 b a^2 b: starts at symbol offsets 2 and 5
    assert naive_rle_match([(0, 2), (1, 1)], [(1, 1), (0, 3), (1, 1), (0, 2), (1, 1)]) == [2, 5]
    assert naive_rle_match([(0, 3)], [(0, 2)]) == []
    assert naive_rle_match([(0, 1)], [(0, 3)]) == [0, 1, 2]


def test_naive_lce():
    assert naive_lce("abab", 0, 2) == 2
    assert naive_lce("abab", 0, 0) == 4
    for i in range(5):
        assert naive_lce("abcde"[: i] + "x" * (5 - i), i, i) == 5 - i if i <= 5 else True
    with pytest.raises(OutOfRangeError):
        naive_lce("ab", 0, 3)


def test_naive_rev_lce():
    assert naive_rev_lce("abab", 4, 2) == 2
    assert naive_rev_lce("abab", 0, 3) == 0
    assert naive_rev_lce("aaaa", 4, 4) == 4


def test_naive_pseq_identity_and_ell():
    g = build("abracadabra", 1)
    res = naive_pseq_levels(g, 0, 11)
    spelled = "".join(g.expand(s) for lvl in res.left for s in lvl)
    spelled += "".join(g.expand(s) for lvl in reversed(res.right) for s in lvl)
    assert spelled == "abracadabra"
    assert 0 <= res.proxy_level <= res.q
    single = naive_pseq_levels(g, 4, 5)
    assert single.q == 0 and len(single.xbar[0]) == 1 and single.proxy_level == 0


def test_oracle_refuses_big_texts():
    g = build("a" * 600, 0)
    with pytest.raises(OutOfRangeError):
        naive_pseq_levels(g, 0, 600)
