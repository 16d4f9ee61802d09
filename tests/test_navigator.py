import random

import pytest

from rlslp import Navigator, build, ipm_query, lce, pseq, rev_lce
from rlslp.builder import level_string
from rlslp.errors import OutOfRangeError
from rlslp.grammar import PAIR, POWER, TERMINAL
from rlslp.navigator import ahead, climb, first_child, highest, jump, leaf, step, up

from helpers import random_ipm_pair, text_corpus


def _children(nav, v):
    """Children of ``v`` left to right, by first_child and jump."""
    c = first_child(nav, v, True)
    out = [c]
    while ahead(nav, c, True):
        c = jump(nav, c, 1, True)
        out.append(c)
    return out


def _at_level(nav, j, k):
    """The level-k node above text position j."""
    v = leaf(nav, j)
    for lv in range(k):
        v = up(nav, v, lv)
    return v


def test_root_handle():
    g = build("abcd", 0)
    nav = Navigator(g)
    # the whole text starts at 0 and ends at n: both edges give the root
    assert highest(nav, 0, True) == (0, g.start, None)
    assert highest(nav, g.text_len, False) == (0, g.start, None)
    assert g.table.explen[g.start] == 4


def test_highest_starts_and_ends_at_position():
    for text, seed in text_corpus(12, 64, seed=17):
        g = build(text, seed)
        nav = Navigator(g)
        ln = g.table.explen
        for i in range(g.text_len):
            v = highest(nav, i, True)
            assert v[0] == i
            assert v[2] is None or v[2][0] < i
            w = highest(nav, i + 1, False)
            assert w[0] + ln[w[1]] == i + 1
            assert w[2] is None or w[2][0] + ln[w[2][1]] > i + 1


def test_child_of_power_and_leaf():
    g = build("baaab", 0)
    nav = Navigator(g)
    t = g.table
    # the power node for 'aaa' is the highest node starting at position 1
    node = highest(nav, 1, True)
    while t.kind[node[1]] != POWER:
        node = first_child(nav, node, True)
    w = t.explen[t.arg0[node[1]]]
    assert jump(nav, first_child(nav, node, True), 2, True)[0] == node[0] + 2 * w
    last = first_child(nav, node, False)
    assert last[0] == node[0] + 2 * w and ahead(nav, last, True) == 0
    assert jump(nav, last, 2, False)[0] == node[0]
    assert t.kind[leaf(nav, 0)[1]] == TERMINAL


def test_child_prefix_sums():
    for text, seed in text_corpus(16, 64, seed=19):
        g = build(text, seed)
        nav = Navigator(g)
        t = g.table
        stack = [(0, g.start, None)]
        while stack:
            node = stack.pop()
            kids = _children(nav, node)
            assert len(kids) == (2 if t.kind[node[1]] == PAIR else t.arg1[node[1]])
            expect = node[0]
            for i, c in enumerate(kids):
                assert c[0] == expect and c[2] is node
                assert ahead(nav, c, False) == i
                assert ahead(nav, c, True) == len(kids) - 1 - i
                expect += t.explen[c[1]]
                if t.kind[c[1]] != TERMINAL:
                    stack.append(c)
            assert expect == node[0] + t.explen[node[1]]
            assert first_child(nav, node, False) == kids[-1]


def test_index_of():
    g = build("aaaab", 0)
    nav = Navigator(g)
    t = g.table
    node = leaf(nav, 3)
    while t.kind[node[1]] != POWER or t.arg1[node[1]] != 4:
        node = node[2]
    # the child covering node.pos + 3 is the fourth copy: three before it
    c = leaf(nav, node[0] + 3)
    while c[2] != node:
        c = c[2]
    assert ahead(nav, c, False) == 3 and ahead(nav, c, True) == 0


def test_index_of_pair_boundary():
    g = build("ab", 0)
    nav = Navigator(g)
    root = (0, g.start, None)
    assert g.table.kind[root[1]] == PAIR
    a, b = leaf(nav, 0), leaf(nav, 1)
    assert a[2] == root and b[2] == root
    assert (ahead(nav, a, False), ahead(nav, a, True)) == (0, 1)
    assert (ahead(nav, b, False), ahead(nav, b, True)) == (1, 0)
    assert jump(nav, a, 1, True) == b and jump(nav, b, 1, False) == a
    assert ahead(nav, root, True) == ahead(nav, root, False) == 0


def test_leaf_positions_and_symbols():
    for text, seed in text_corpus(12, 64, seed=23):
        g = build(text, seed)
        nav = Navigator(g)
        for j, ch in enumerate(text):
            v = leaf(nav, j)
            assert v[0] == j
            assert g.expand(v[1]) == ch
    nav = Navigator(build("ab", 0))
    with pytest.raises(OutOfRangeError):
        leaf(nav, 2)
    with pytest.raises(OutOfRangeError):
        leaf(nav, -1)


def test_handle_persistence():
    g = build("abab", 3)
    nav = Navigator(g)
    root = (0, g.start, None)
    c0 = first_child(nav, root, True)
    c1 = first_child(nav, root, False)
    assert c0[2] is root and c1[2] is root
    # moving on from a cursor leaves it and its ancestors untouched
    again = first_child(nav, root, True)
    assert again == c0 and again is not c0
    assert jump(nav, c0, 1, True) == c1 and c0[2] is root


def test_u_parent_levels():
    # `up` in the uncompressed tree stays on a subdivided edge
    g = build("ab", 0)
    nav = Navigator(g)
    pair_level = g.table.level[g.start]
    assert pair_level >= 2
    v = leaf(nav, 0)
    # the edge stays subdivided until the round that created the pair
    for k in range(pair_level - 1):
        assert up(nav, v, k) is v
    root = up(nav, v, pair_level - 1)
    assert root[1] == g.start and root[2] is None
    # above the root every level is the root itself
    assert up(nav, root, pair_level) is root


def test_u_parent_real_climb():
    # the power `aa` is created in round 1: `up` from level 0 reaches it
    g = build("aa", 0)
    nav = Navigator(g)
    v = leaf(nav, 0)
    assert up(nav, v, 0)[1] == g.start


def test_u_next_enumerates_level_strings():
    # `step` forward lists every level string
    for text, seed in text_corpus(20, 256, seed=29):
        g = build(text, seed)
        nav = Navigator(g)
        for k in range(g.rounds + 1):
            want = level_string(g, k).symbols
            v = _at_level(nav, 0, k)
            got = []
            while v is not None:
                got.append(v[1])
                v = step(nav, v, k, True)
            assert got == want, (text, seed, k)


def test_u_prev_mirrors_u_next():
    # `step` backward lists every level string in reverse
    for text, seed in text_corpus(8, 128, seed=30):
        g = build(text, seed)
        nav = Navigator(g)
        for k in range(g.rounds + 1):
            want = level_string(g, k).symbols
            v = _at_level(nav, g.text_len - 1, k)
            got = []
            while v is not None:
                got.append(v[1])
                v = step(nav, v, k, False)
            got.reverse()
            assert got == want, (text, seed, k)
        assert step(nav, leaf(nav, 0), 0, False) is None


def test_climb_reaches_next_fragment():
    g = build("abracadabra", 4)
    nav = Navigator(g)
    ln = g.table.explen
    for j in range(g.text_len):
        v = leaf(nav, j)
        nxt = climb(nav, v, True)
        if j == g.text_len - 1:
            assert nxt is None
        else:
            assert nxt == highest(nav, j + 1, True)
        prv = climb(nav, v, False)
        if j == 0:
            assert prv is None
        else:
            assert prv[0] + ln[prv[1]] == j and prv == highest(nav, j, False)


def test_forward_chain_step_bound():
    # chains of forward `step` and `up` moves cost O(r + s) steps
    rng = random.Random(31)
    checked = 0
    for text, seed in text_corpus(50, 200, seed=37):
        g = build(text, seed)
        nav = Navigator(g)
        r = g.rounds
        for _ in range(20):
            v = leaf(nav, rng.randrange(g.text_len))
            k = 0
            s = rng.randint(1, 64)
            nav.steps = 0
            done = 0
            for _ in range(s):
                if rng.random() < 0.5:
                    v = up(nav, v, k)
                    k += 1
                else:
                    nxt = step(nav, v, k, True)
                    if nxt is None:
                        break
                    v = nxt
                done += 1
            assert nav.steps <= 8 * (r + max(done, 1)), (text, seed, nav.steps, r, done)
            checked += 1
    assert checked == 1000


def test_step_totals_pinned():
    # exact Navigator.steps totals of the query layers on a fixed corpus:
    # a change to how any query walks the tree changes one of them
    totals = {"lce": 0, "rev_lce": 0, "pseq": 0, "ipm_query": 0}
    rng = random.Random(43)
    for text, seed in text_corpus(24, 300, seed=41):
        g = build(text, seed)
        n = g.text_len
        nav = Navigator(g)
        for _ in range(25):
            i, i2 = rng.randint(0, n), rng.randint(0, n)
            x, x2, y, y2 = random_ipm_pair(rng, n)
            for name, call in (("lce", lambda: lce(g, i, i2, nav)),
                               ("rev_lce", lambda: rev_lce(g, i, i2, nav)),
                               ("pseq", lambda: pseq(g, x, x2, nav)),
                               ("ipm_query", lambda: ipm_query(g, x, x2, y, y2, nav))):
                before = nav.steps
                call()
                totals[name] += nav.steps - before
    assert totals == {"lce": 17352, "rev_lce": 17237, "pseq": 65010, "ipm_query": 133389}
