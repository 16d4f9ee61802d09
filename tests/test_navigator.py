import random

import pytest

from rlslp import Navigator, build, ipm_query, lce, pseq, rev_lce
from rlslp.builder import level_string
from rlslp.cli import load_index, save_index
from rlslp.errors import OutOfRangeError
from rlslp.grammar import PAIR, POWER, TERMINAL
from rlslp.navigator import highest, leaf, leaves

from helpers import (ahead, climb, first_child, jump, random_ipm_pair, ref_climb, ref_lce,
                     ref_pseq, ref_step, step, text_corpus, up)


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
    kind = t.kind
    # the power node for 'aaa' is the highest node starting at position 1
    node = highest(nav, 1, True)
    while kind[node[1]] != POWER:
        node = first_child(nav, node, True)
    w = t.explen[t.arg0[node[1]]]
    assert jump(nav, first_child(nav, node, True), 2, True)[0] == node[0] + 2 * w
    last = first_child(nav, node, False)
    assert last[0] == node[0] + 2 * w and ahead(nav, last, True) == 0
    assert jump(nav, last, 2, False)[0] == node[0]
    assert kind[leaf(nav, 0)[1]] == TERMINAL


def test_child_prefix_sums():
    for text, seed in text_corpus(16, 64, seed=19):
        g = build(text, seed)
        nav = Navigator(g)
        t = g.table
        kind = t.kind
        stack = [(0, g.start, None)]
        while stack:
            node = stack.pop()
            kids = _children(nav, node)
            assert len(kids) == (2 if kind[node[1]] == PAIR else t.arg1[node[1]])
            expect = node[0]
            for i, c in enumerate(kids):
                assert c[0] == expect and c[2] is node
                assert ahead(nav, c, False) == i
                assert ahead(nav, c, True) == len(kids) - 1 - i
                expect += t.explen[c[1]]
                if kind[c[1]] != TERMINAL:
                    stack.append(c)
            assert expect == node[0] + t.explen[node[1]]
            assert first_child(nav, node, False) == kids[-1]


def test_index_of():
    g = build("aaaab", 0)
    nav = Navigator(g)
    t = g.table
    node = leaf(nav, 3)
    kind = t.kind
    while kind[node[1]] != POWER or t.arg1[node[1]] != 4:
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


def _chain(v):
    """``(pos, sym)`` of ``v`` and its ancestors, from the root down."""
    out = []
    while v is not None:
        out.append(v[:2])
        v = v[2]
    return out[::-1]


def test_leaf_stops_at_level_k(tmp_path):
    # leaf(nav, j, k) is the level-k node over T[j] that ``up`` moves reach
    # from the terminal, and costs two steps per level it descends
    for g in _built_and_loaded(tmp_path, 8, 64, 71):
        nav = Navigator(g)
        for j in range(g.text_len):
            for k in range(g.rounds + 2):
                v, cost = _charged(nav, leaf, j, k)
                assert v == _at_level(nav, j, k), (j, k)
                assert cost == 2 * (len(_chain(v)) - 1), (j, k)


def test_leaves_descend_together(tmp_path):
    # leaves(nav, j, j2) gives leaf(nav, j) and leaf(nav, j2), and charges
    # the descent to their deepest common ancestor once
    for g in _built_and_loaded(tmp_path, 8, 48, 73):
        nav = Navigator(g)
        n = g.text_len
        for j in range(n):
            for j2 in range(j, n):
                (a, b), cost = _charged(nav, leaves, j, j2)
                assert (a, b) == (leaf(nav, j), leaf(nav, j2)), (j, j2)
                ca, cb = _chain(a), _chain(b)
                shared = sum(1 for u, w in zip(ca, cb) if u == w)
                assert cost == 2 * (len(ca) + len(cb) - shared - 1), (j, j2)
        for j, j2 in ((1, 0), (-1, 0), (0, n)):
            with pytest.raises(OutOfRangeError):
                leaves(nav, j, j2)


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


def _built_and_loaded(tmp_path, count, max_len, seed, extra=()):
    """Small built grammars, each followed by the same grammar saved and loaded."""
    corpus = [*text_corpus(count, max_len, seed=seed), *extra]
    for i, (text, build_seed) in enumerate(corpus):
        g = build(text, build_seed)
        yield g
        save_index(g, tmp_path / f"{i}.idx")
        yield load_index(tmp_path / f"{i}.idx")


def _charged(nav, move, *args):
    before = nav.steps
    return move(nav, *args), nav.steps - before


def test_fused_moves_match_single_moves(tmp_path):
    # step and climb return the reference's cursor and charge its steps,
    # call by call: for every level-k node, every k and both directions
    calls = 0
    for g in _built_and_loaded(tmp_path, 12, 96, 47):
        nav = Navigator(g)
        for k in range(g.rounds + 2):
            nodes = {v[0]: v for v in (_at_level(nav, j, k) for j in range(g.text_len))}
            for v in nodes.values():
                for forward in (True, False):
                    assert (_charged(nav, step, v, k, forward)
                            == _charged(nav, ref_step, v, k, forward)), (k, v, forward)
                    assert (_charged(nav, climb, v, forward)
                            == _charged(nav, ref_climb, v, forward)), (v, forward)
                    calls += 1
    assert calls > 10_000


def test_lce_walk_matches_single_moves(tmp_path):
    # lce and rev_lce, with their moves inline, give the reference's answer
    # and charge its steps, call by call: every (i, i2) in [0, n]^2
    fib = ["a", "ab"]
    while len(fib[-1]) < 40:
        fib.append(fib[-1] + fib[-2])
    structured = [(fib[-1][:40], 5), ("a" * 37, 6), (("abaab" * 9)[:43], 7),
                  ("abcabcabcab" * 4, 8)]
    calls = 0
    for g in _built_and_loaded(tmp_path, 8, 40, 59, structured):
        nav = Navigator(g)
        n = g.text_len
        for i in range(n + 1):
            for i2 in range(n + 1):
                for query, forward in ((lce, True), (rev_lce, False)):
                    got = _charged(nav, lambda nav: query(g, i, i2, nav))
                    want = _charged(nav, ref_lce, i, i2, forward)
                    assert got == want, (forward, i, i2)
                    calls += 1
    assert calls > 20_000


def test_pseq_pops_match_single_moves(tmp_path):
    # pseq's inline lifts and pops give the reference's blocks and charges
    for g in _built_and_loaded(tmp_path, 8, 40, 53):
        nav = Navigator(g)
        for x in range(g.text_len):
            for x2 in range(x + 1, g.text_len + 1):
                got, cost = _charged(nav, lambda nav: pseq(g, x, x2, nav))
                want, ref_cost = _charged(nav, ref_pseq, x, x2)
                assert ((got.left, got.right), cost) == (want, ref_cost), (x, x2)


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
    assert totals == {"lce": 16868, "rev_lce": 16729, "pseq": 64052, "ipm_query": 113871}
