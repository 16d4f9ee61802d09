import random
import sys
import threading
from bisect import bisect_right

import pytest

from rlslp import Navigator, build, ipm_query, lce, pseq, rev_lce
from rlslp.builder import level_string
from rlslp.cli import load_index, save_index
from rlslp.errors import ForeignNavigatorError, OutOfRangeError
from rlslp.grammar import PAIR, POWER, TERMINAL, Grammar, SymbolTable
from rlslp.ipm import proxy_pattern, proxy_text, verify_progression
from rlslp.navigator import highest, leaf, leaves
from rlslp.oracle import naive_lce, naive_occ, naive_rev_lce

from helpers import (ahead, climb, first_child, jump, parity_build, random_ipm_pair, random_text,
                     ref_climb, ref_highest, ref_lce, ref_leaf, ref_leaves, ref_pseq, ref_step,
                     step, text_corpus, up)


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


def _depth(v):
    d = 0
    while v[2] is not None:
        v = v[2]
        d += 1
    return d


def _charge(nav, start, v, j):
    """Steps of a descent from ``start`` to ``v``, both over text position
    ``j`` and on one path from the root, where ``(pos, sym)`` tells nodes
    apart: none when v is start; from a cursor above the frontier cursor f
    over j, one to jump to f, then one per ``up`` to v or two per level
    down to it; from any other cursor two per level."""
    if v[:2] == start[:2]:
        return 0
    _, starts, tops = nav.frontier
    f = tops[bisect_right(starts, j) - 1]
    assert f[0] <= j < f[0] + nav.g.table.explen[f[1]]
    u = f[2]
    while u is not None and u[:2] != start[:2]:
        u = u[2]
    dv, df = _depth(v), _depth(f)
    if u is None:  # start is f or below it
        return 2 * (dv - _depth(start))
    return 1 + (2 * (dv - df) if dv >= df else df - dv)


def _leaves_charge(nav, a, b, j, j2):
    """Steps of ``leaves(nav, j, j2)`` that returned ``(a, b)``: the descent
    from the root to u, the highest node over j ending at or before j2 (the
    child on a's side of the deepest node holding both), then from u to a
    and from u's parent to b."""
    root = (0, nav.g.start, None)
    if j == j2:
        return _charge(nav, root, a, j)
    u = a
    while u[2] is not None and u[2][0] + nav.g.table.explen[u[2][1]] <= j2:
        u = u[2]
    return _charge(nav, root, u, j) + _charge(nav, u, a, j) + _charge(nav, u[2], b, j2)


def test_leaf_stops_at_level_k(tmp_path):
    # leaf(nav, j, k) is the level-k node over T[j] that ``up`` moves reach
    # from the terminal, charged by the frontier rule
    for g in _built_and_loaded(tmp_path, 8, 64, 71):
        nav = Navigator(g)
        root = (0, g.start, None)
        for j in range(g.text_len):
            for k in range(g.rounds + 2):
                v, cost = _charged(nav, leaf, j, k)
                assert v == _at_level(nav, j, k), (j, k)
                assert cost == _charge(nav, root, v, j), (j, k)


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
                assert cost == _leaves_charge(nav, a, b, j, j2), (j, j2)
        for j, j2 in ((1, 0), (-1, 0), (0, n)):
            with pytest.raises(OutOfRangeError):
                leaves(nav, j, j2)


def _frontier_bound(g):
    """F's bound: the nodes expanded at one depth are disjoint and longer
    than B, so each depth below the root holds fewer than 3n/B frontier
    cursors (two children per pair, disjoint copies longer than B per
    power), and levels fall by at least one per depth."""
    b = max(1, g.text_len >> 8)
    return max(1, 3 * (g.text_len // b + 1) * g.rounds)


def _check_frontier(g, positions, pairs, levels=None, eq=lambda a, b: a == b):
    """The frontier of ``g`` covers the text in order within its bound, and
    ``leaf`` (at every level, or at ``levels``), ``highest`` and ``leaves``
    return cursors equal to the root descents' and charge the frontier
    rule.  Returns F."""
    nav, ref = Navigator(g), Navigator(g)
    t, n = g.table, g.text_len
    ln = t.explen
    bound, starts, tops = nav.frontier
    assert bound == max(1, n >> 8) and 1 <= len(tops) <= _frontier_bound(g)
    assert starts == [v[0] for v in tops] == [0] + [v[0] + ln[v[1]] for v in tops[:-1]]
    assert tops[-1][0] + ln[tops[-1][1]] == n
    for v in tops:  # a frontier cursor is not expanded, its parent is
        s = v[1]
        assert (ln[t.arg0[s]] if t.level[s] & 1 else ln[s]) <= bound
        if v[2] is not None:
            s = v[2][1]
            assert (ln[t.arg0[s]] if t.level[s] & 1 else ln[s]) > bound
    root = (0, g.start, None)
    for j in positions:
        for k in range(g.rounds + 2) if levels is None else levels:
            v, cost = _charged(nav, leaf, j, k)
            assert eq(v, ref_leaf(ref, j, k)) and cost == _charge(nav, root, v, j), (j, k)
        for i, forward in ((j, True), (j + 1, False)):
            v, cost = _charged(nav, highest, i, forward)
            assert eq(v, ref_highest(ref, i, forward)), (i, forward)
            assert cost == _charge(nav, root, v, j), (i, forward)
    for j, j2 in pairs:
        (a, b), cost = _charged(nav, leaves, j, j2)
        want = ref_leaves(ref, j, j2)
        assert eq(a, want[0]) and eq(b, want[1]), (j, j2)
        assert cost == _leaves_charge(nav, a, b, j, j2), (j, j2)
    return len(tops)


def _all_pairs(n):
    return [(j, j2) for j in range(n) for j2 in range(j, n)]


def test_frontier_descents_match_root_descents(tmp_path):
    # built and loaded grammars, the longer ones with B > 1 so that descents
    # go on below a frontier cursor; grammars whose pair rounds merge by
    # rank parity; and the two hand-made grammars the loader accepts
    rng = random.Random(79)
    longer = [(random_text(rng, 1200, sigma, min_len=600), 80 + sigma) for sigma in (2, 4, 26)]
    longer.append((("abaabab" * 200)[:1300], 85))
    for g in _built_and_loaded(tmp_path, 12, 64, 79, longer):
        n = g.text_len
        pairs = _all_pairs(n) if n <= 64 else [tuple(sorted((rng.randrange(n), rng.randrange(n))))
                                               for _ in range(1000)]
        _check_frontier(g, range(n), pairs)
    for text, seed in text_corpus(24, 64, seed=83):
        g, _ = parity_build(text, seed)
        _check_frontier(g, range(len(text)), _all_pairs(len(text)))
    for cols, start, text in (
            (([98, 97, 0, 1, 2], [0, 0, 1, 0, 3], [0, 0, 2, 2, 4]), 4, "baab"),
            (([97, 98, 1, 1, 3, 0], [0, 0, 0, 2, 0, 4], [0, 0, 2, 4, 6, 8]), 5, "abbaa")):
        n = len(text)
        g = Grammar(table=SymbolTable.from_columns(*cols, n), start=start,
                    rounds=cols[2][start], seed=0, text_len=n)
        _check_frontier(g, range(n), _all_pairs(n))


def test_frontier_of_a_single_power_or_character():
    # "a" * 70000 is one power whose base is 1 <= B long: the frontier is the
    # root, and every descent goes from it at two steps per level
    g = build("a" * 70000, 0)
    rng = random.Random(89)
    pairs = [tuple(sorted((rng.randrange(70000), rng.randrange(70000)))) for _ in range(2000)]
    assert _check_frontier(g, range(70000), pairs) == 1
    assert Navigator(g).frontier[2] == [(0, g.start, None)]
    g = build("a", 0)
    assert _check_frontier(g, [0], [(0, 0)]) == 1


def test_frontier_of_deep_loaded_chain(tmp_path):
    # the 1500-pair chain (((ab)b)b)... of test_deep_loaded_grammar_expands,
    # deeper than the recursion limit: B = 5, so the frontier is every b
    # below a pair of length 6 or more, 1496 cursors, built and walked with
    # no recursion.  Every position is checked at level 0, and every 23rd
    # level at four positions, as a descent here can walk 1500 levels.
    # ``==`` on cursors nested 1500 deep would recurse, so cursors are
    # compared level by level
    arg0 = [ord("a"), ord("b"), 0, *range(2, 1500)]
    arg1 = [0, 0] + [1] * 1499
    level = [0, 0] + list(range(2, 3000, 2))
    t = SymbolTable.from_columns(arg0, arg1, level, 1500)
    path = tmp_path / "deep.idx"
    save_index(Grammar(table=t, start=len(t) - 1, rounds=2 * 1499, seed=0, text_len=1500),
               str(path))
    g = load_index(str(path))
    pairs = [(j, 1499) for j in range(0, 1500, 11)] + [(0, j) for j in range(0, 1500, 13)]
    same = lambda a, b: _chain(a) == _chain(b)  # noqa: E731
    assert _check_frontier(g, range(1500), pairs, levels=[0], eq=same) == 1496
    _check_frontier(g, [0, 6, 750, 1499], [], levels=range(0, g.rounds + 2, 23), eq=same)


def test_navigator_of_another_grammar_raises():
    # a navigator carries its grammar's frontier and columns: one made for
    # another table or start symbol raises before any walk
    g1, g2 = build("abababababab", 0), build("a" * 40, 0)
    foreign = Navigator(g1)
    calls = [lambda: lce(g2, 0, 1, foreign), lambda: rev_lce(g2, 1, 0, foreign),
             lambda: lce(g2, 3, 3, foreign), lambda: pseq(g2, 0, 4, foreign),
             lambda: ipm_query(g2, 0, 4, 0, 7, foreign),
             lambda: proxy_pattern(g2, 0, 4, foreign),
             lambda: proxy_text(g2, 0, 7, proxy_pattern(g2, 0, 4), foreign),
             lambda: verify_progression(g2, ipm_query(g2, 0, 4, 0, 7), 1,
                                        proxy_pattern(g2, 0, 4), 0, 4, 0, 7, foreign)]
    for call in calls:
        before = foreign.steps
        with pytest.raises(ForeignNavigatorError):
            call()
        assert foreign.steps == before
    assert lce(g2, 0, 1) == 39 and ipm_query(g2, 0, 4, 0, 7).count == 4
    # the same table under another start symbol: a grammar of its own
    t = g1.table
    sub = max((s for s in range(len(t)) if s != g1.start), key=t.explen.__getitem__)
    part = Grammar(table=t, start=sub, rounds=t.level[sub], seed=0, text_len=t.explen[sub])
    text = part.expand(sub)
    assert len(text) >= 4
    with pytest.raises(ForeignNavigatorError):
        lce(part, 0, 2, foreign)
    assert lce(part, 0, 2, Navigator(part)) == naive_lce(text, 0, 2)
    assert lce(g1, 0, 2, foreign) == 10
    # an equal grammar made again over the same table is the same grammar
    again = Grammar(g1.table, g1.start, g1.rounds, g1.seed, g1.text_len)
    assert lce(again, 0, 2, foreign) == 10


def test_two_threads_query_a_fresh_grammar(tmp_path):
    # both threads make the first navigator of a freshly loaded grammar at
    # once, so both may build its frontier; every answer must still match
    # the oracles
    rng = random.Random(97)
    text = "".join(random_text(rng, 40, 3, min_len=1) * rng.randint(1, 6) for _ in range(200))
    path = tmp_path / "fresh.idx"
    save_index(build(text, 3), str(path))
    g = load_index(str(path))
    assert g.table.frontiers == {}
    n = len(text)
    start = threading.Barrier(2)
    wrong, done = [], []

    def work(seed):
        r = random.Random(seed)
        start.wait(timeout=30)
        nav = Navigator(g)
        for _ in range(300):
            i, i2 = r.randint(0, n), r.randint(0, n)
            if lce(g, i, i2, nav) != naive_lce(text, i, i2) or \
                    rev_lce(g, i, i2) != naive_rev_lce(text, i, i2):
                wrong.append((i, i2))
            x, x2, y, y2 = random_ipm_pair(r, n)
            if list(ipm_query(g, x, x2, y, y2, nav).positions()) != naive_occ(text, x, x2, y, y2):
                wrong.append((x, x2, y, y2))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in (1, 2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(done) == [1, 2] and not wrong, wrong[:5]
    assert list(g.table.frontiers) == [g.start]


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
    assert totals == {"lce": 6507, "rev_lce": 6341, "pseq": 55538, "ipm_query": 100899}
