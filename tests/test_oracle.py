import random

import pytest

from rlslp.builder import LevelString, build, draw_partition, shrink_pc, shrink_rle
from rlslp.errors import OutOfRangeError
from rlslp.grammar import Grammar, SymbolTable
from rlslp.ipm import ipm_query
from rlslp.oracle import naive_lce, naive_occ, naive_pseq_levels, naive_rev_lce, naive_rle_match
from rlslp.popped import pseq

from helpers import random_ipm_pair, text_corpus


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


def _parity_build(text, seed):
    """A recompression grammar of ``text`` whose pair rounds take as left
    the symbols of even first-occurrence rank instead of drawing coins, and
    the number of its pair rounds whose merges differ from the coin's.  The
    first two symbols of a run-free string have ranks 0 and 1 and merge, so
    every pair round shortens the string."""
    table = SymbolTable()
    ids = {ch: table.add_terminal(ord(ch)) for ch in dict.fromkeys(text)}
    cur = LevelString(0, [ids[ch] for ch in text])
    differ = 0
    while len(cur.symbols) > 1:
        if cur.level % 2 == 0:
            cur = shrink_rle(cur, table)
            continue
        left = set(list(dict.fromkeys(cur.symbols))[0::2])
        adjacent = set(zip(cur.symbols, cur.symbols[1:]))
        coin = draw_partition(cur, seed)
        differ += ({(a, b) for a, b in adjacent if a in left and b not in left} !=
                   {(a, b) for a, b in adjacent if a in coin and b not in coin})
        cur = shrink_pc(cur, left, table)
    return Grammar(table=table, start=cur.symbols[0], rounds=cur.level, seed=seed,
                   text_len=len(text)), differ


def test_oracle_runs_on_grammars_built_without_the_coin():
    # the oracle reads each round's merge sets off the table, so it needs
    # no coin to replay: on grammars whose pair rounds merged by another
    # partition it must still equal pseq, and ipm_query must stay exact
    rng = random.Random(2023)
    differ = frags = 0
    for text, seed in text_corpus(150, 96, seed=23):
        g, d = _parity_build(text, seed)
        differ += d
        n = len(text)
        assert g.expand(g.start) == text
        for _ in range(8):
            x = rng.randrange(n)
            x2 = rng.randint(x + 1, n)
            ps, ora = pseq(g, x, x2), naive_pseq_levels(g, x, x2)
            assert ps.q == ora.q, (text, x, x2)
            for k in range(ps.q + 1):
                for got, want in ((ps.left[k], ora.left[k]), (ps.right[k], ora.right[k])):
                    assert ([got[0]] * got[1] if got else []) == want, (text, x, x2, k)
            frags += 1
            x, x2, y, y2 = random_ipm_pair(rng, n)
            assert list(ipm_query(g, x, x2, y, y2).positions()) == \
                naive_occ(text, x, x2, y, y2), (text, x, x2, y, y2)
    assert frags == 1200 and differ >= 100
