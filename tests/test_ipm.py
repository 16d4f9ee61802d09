import random

import pytest

from rlslp.builder import build
from rlslp.errors import (
    EmptyFragmentError,
    EmptyPatternError,
    InternalInvariantError,
    OutOfRangeError,
    RatioViolationError,
)
from rlslp.ipm import (
    EMPTY_PROGRESSION,
    Progression,
    _merge_all,
    ipm_query,
    lift_progression,
    proxy_pattern,
    proxy_text,
    rle_match,
    verify_progression,
)
from rlslp.navigator import Navigator, leaf
from rlslp.oracle import naive_occ, naive_proxy_text, naive_pseq_levels
from rlslp.popped import pseq

from helpers import random_ipm_pair, random_text, ref_proxy_text, text_corpus


# ---------------------------------------------------------------- progressions

def test_progression_normalization():
    assert Progression.of(5, 7, 0) == EMPTY_PROGRESSION
    assert Progression.of(5, 7, 1) == Progression(5, 1, 1)
    assert list(Progression.of(3, 2, 4).positions()) == [3, 5, 7, 9]
    assert Progression.of(3, 2, 4).last == 9


# --------------------------------------------------------------- proxy pattern

def test_proxy_pattern_single_char():
    g = build("qrs", 0)
    pp = proxy_pattern(g, 1, 2)
    assert pp.level == 0
    assert pp.left_off == 0 and pp.right_cut == 1
    assert pp.sym_len == 1 and pp.exp_len == 1
    assert g.expand(pp.rle[0][0]) == "r"


def test_proxy_pattern_empty_rejected():
    g = build("ab", 0)
    with pytest.raises(EmptyFragmentError):
        proxy_pattern(g, 1, 1)


def test_proxy_pattern_matches_oracle_level_and_window():
    for text, seed in text_corpus(20, 48, seed=67):
        g = build(text, seed)
        n = len(text)
        for x in range(n):
            for x2 in range(x + 1, n + 1):
                pp = proxy_pattern(g, x, x2)
                ora = naive_pseq_levels(g, x, x2)
                assert pp.level == ora.proxy_level, (text, seed, x, x2)
                flat = [s for s, e in pp.rle for _ in range(e)]
                assert flat == ora.xbar[ora.proxy_level]
                assert pp.sym_len == len(flat) and pp.sym_len > pp.level
                # the encoded window expands to X[left_off, right_cut)
                assert "".join(g.expand(s) for s in flat) == text[x + pp.left_off:x + pp.right_cut]
                # maximality of adjacent runs
                assert all(pp.rle[i][0] != pp.rle[i + 1][0]
                           for i in range(len(pp.rle) - 1))


# ------------------------------------------------------------------ proxy text

def test_proxy_text_stays_inside_y():
    rng = random.Random(71)
    for trial in range(60):
        text = random_text(rng, 96, (1, 2, 4, 26)[trial % 4])
        g = build(text, trial)
        n = len(text)
        x, x2, y, y2 = random_ipm_pair(rng, n)
        pp = proxy_pattern(g, x, x2)
        pt = proxy_text(g, y, y2, pp)
        if pt.sym_len == 0:
            continue
        assert y <= pt.text_start and pt.text_start + pt.exp_len <= y2
        assert "".join(g.expand(s) * e for s, e in pt.rle) == \
            text[pt.text_start:pt.text_start + pt.exp_len]
        # size bound coming from the symbol trim
        assert pt.sym_len < 2 * pp.sym_len + 2 * pp.level


def test_proxy_text_contains_induced_occurrences():
    # for every real occurrence of X in Y, the induced proxy-level occurrence
    # lies inside the proxy window
    rng = random.Random(73)
    checked = 0
    for trial in range(160):
        text = random_text(rng, 64, (1, 2, 4)[trial % 3])
        g = build(text, trial)
        n = len(text)
        x, x2, y, y2 = random_ipm_pair(rng, n)
        occs = naive_occ(text, x, x2, y, y2)
        if not occs:
            continue
        pp = proxy_pattern(g, x, x2)
        pt = proxy_text(g, y, y2, pp)
        window = [s for s, e in pt.rle for _ in range(e)]
        flat = [s for s, e in pp.rle for _ in range(e)]
        for p in occs:
            ora = naive_pseq_levels(g, p, p + (x2 - x))
            assert ora.xbar[pp.level] == flat
            found = any(window[i:i + len(flat)] == flat
                        for i in range(len(window) - len(flat) + 1))
            assert found, (text, trial, (x, x2), (y, y2), p)
            checked += 1
        # with an occurrence present the window is short relative to the
        # pattern, so the matcher returns a handful of progressions
        assert pt.sym_len < 4 * pp.sym_len
        assert len(rle_match(pp.rle, pt.rle)) <= 4
    assert checked > 50


def _window_texts(rng):
    for sigma in (1, 2, 4, 26):
        for _ in range(6):
            yield random_text(rng, 200, sigma)
    fib = ["a", "ab"]
    while len(fib[-1]) < 300:
        fib.append(fib[-1] + fib[-2])
    yield fib[-1][:300]
    for _ in range(6):
        period = random_text(rng, 8, 3)
        yield "".join(period * rng.randint(1, 9) + random_text(rng, 2, 4)
                      for _ in range(12))[:400]


def test_proxy_text_matches_exact_window_oracle():
    rng = random.Random(79)
    for seed, text in enumerate(_window_texts(rng)):
        g = build(text, seed)
        n = len(text)
        for q in range(30):
            x, x2, y, y2 = random_ipm_pair(rng, n)
            if q % 3 == 0:  # Y touching 0 or n
                y, y2 = (0, y2 - y) if q % 2 else (n - (y2 - y), n)
            pp = proxy_pattern(g, x, x2)
            pt = proxy_text(g, y, y2, pp)
            assert (pt.rle, pt.text_start, pt.exp_len, pt.sym_len) == \
                naive_proxy_text(g, y, y2, pp), (text, seed, (x, x2), (y, y2))
            # runs are maximal: no two neighbours share a symbol
            for rle in (pp.rle, pt.rle):
                assert all(a[0] != b[0] for a, b in zip(rle, rle[1:])), (text, seed, rle)


def _same_as_reference(g, y, y2, pp):
    # the inline walk gives the reference's ProxyText and charges its steps
    nav, ref_nav = Navigator(g), Navigator(g)
    got = proxy_text(g, y, y2, pp, nav)
    assert got == ref_proxy_text(g, y, y2, pp, ref_nav), (y, y2, pp)
    assert nav.steps == ref_nav.steps, (y, y2, pp)


def _tandem_texts(rng):
    yield "a" * 700
    yield ("ab" * 400)[:777]
    yield "a" * 300 + "b" + "a" * 300
    yield "a" * 250 + "b" * 250 + "a" * 250
    for _ in range(8):
        period = random_text(rng, 6, 3)
        yield "".join(period * rng.randint(5, 60) + random_text(rng, 3, 3)
                      for _ in range(6))[:700]


def test_proxy_text_matches_reference():
    rng = random.Random(83)
    texts = [text for text, _ in text_corpus(32, 300, seed=83)]
    texts += [*_window_texts(rng), *_tandem_texts(rng)]
    for seed, text in enumerate(texts):
        g = build(text, seed)
        n = len(text)
        for q in range(30):
            x, x2, y, y2 = random_ipm_pair(rng, n)
            if q % 3 == 0:  # Y touching 0 or n
                y, y2 = (0, y2 - y) if q % 2 else (n - (y2 - y), n)
            _same_as_reference(g, y, y2, proxy_pattern(g, x, x2))


def _past_window(g, y, y2, pp):
    """How many symbols T[m]'s proxy-level ancestor lies beyond the trim
    window inside its level-(level+1) power, when that power starts after
    y, so that the backward walk runs; 0 otherwise."""
    t = g.table
    m = y + (y2 - y) // 2
    v = m_node = leaf(Navigator(g), m)
    for k in range(1, pp.level + 2):
        if v[2] is not None and t.level[v[2][1]] == k:
            v = v[2]
        if k == pp.level:
            m_node = v
    s = v[1]
    if t.level[s] != pp.level + 1 or pp.level & 1 or v[0] <= y:
        return 0
    i = (m_node[0] - v[0]) // t.explen[t.arg0[s]]
    return max(0, i - (pp.sym_len + pp.level - 1))


def test_proxy_text_matches_reference_deep_in_a_power():
    # Y starts just before a long power of a two-letter period and its
    # middle lies deep inside it: the blocks the backward walk takes, and
    # not only the outermost one, fall wholly outside the window
    rng = random.Random(89)
    deep = 0
    for seed in range(40):
        head = random_text(rng, 300, 4, 200)
        period = "".join(rng.sample("abcd", 2))
        text = head + period * rng.randint(100, 300) + random_text(rng, 50, 4)
        g = build(text, seed)
        for _ in range(40):
            xl = rng.randint(20, 90)
            x = rng.randint(0, len(head) - xl)
            yl = rng.randint(xl, 2 * xl - 1)
            y = rng.randint(len(head) - yl // 2, len(head))
            pp = proxy_pattern(g, x, x + xl)
            deep += _past_window(g, y, y + yl, pp) > 0
            _same_as_reference(g, y, y + yl, pp)
    assert deep >= 10


def test_proxy_text_empty_fragment_rejected():
    g = build("abc", 0)
    pp = proxy_pattern(g, 0, 2)
    with pytest.raises(EmptyFragmentError):
        proxy_text(g, 2, 2, pp)


# ------------------------------------------------------- lift and verification

def test_lift_positions_are_proxy_occurrences():
    rng = random.Random(79)
    for trial in range(120):
        text = random_text(rng, 64, (1, 2, 4)[trial % 3])
        g = build(text, trial)
        x, x2, y, y2 = random_ipm_pair(rng, len(text))
        pp = proxy_pattern(g, x, x2)
        pt = proxy_text(g, y, y2, pp)
        if pt.sym_len < pp.sym_len:
            continue
        window = text[x + pp.left_off:x + pp.right_cut]
        for vl in rle_match(pp.rle, pt.rle):
            v, gstep = lift_progression(g, vl, pt, pp)
            assert gstep <= pp.exp_len
            for pos in v.positions():
                assert text[pos:pos + pp.exp_len] == window
                assert y <= pos and pos + pp.exp_len <= y2


def test_verify_progression_hand_case():
    # T = "aaaa", X = T[0,2), Y = T[0,3): occurrences {0, 1}
    g = build("aaaa", 0)
    pp = proxy_pattern(g, 0, 2)
    pt = proxy_text(g, 0, 3, pp)
    progs = rle_match(pp.rle, pt.rle)
    assert len(progs) == 1
    v, gstep = lift_progression(g, progs[0], pt, pp)
    out = verify_progression(g, v, gstep, pp, 0, 2, 0, 3)
    assert list(out.positions()) == [0, 1]


def test_verify_progression_empty_input():
    g = build("ab", 0)
    pp = proxy_pattern(g, 0, 1)
    assert verify_progression(g, EMPTY_PROGRESSION, 1, pp, 0, 1, 0, 1).count == 0


# ------------------------------------------------------------------ end to end

def test_exact_self_match():
    g = build("abcabc", 0)
    occ = ipm_query(g, 2, 5, 2, 5)
    assert (occ.start, occ.diff, occ.count) == (2, 1, 1)


def test_hand_case_overlapping_runs():
    g = build("aaaaaa", 0)
    occ = ipm_query(g, 0, 2, 1, 4)
    assert (occ.start, occ.diff, occ.count) == (1, 1, 2)


def test_unique_occurrence_costs_no_lce_walk():
    # Y covers X's only occurrence and holds the proxy pattern's expansion
    # once: the one candidate is X itself, verified by an LCE of x with
    # itself, so the query charges its pseq and proxy_text and nothing else
    rng = random.Random(97)
    checked = 0
    for trial in range(40):
        text = random_text(rng, 400, (4, 26)[trial % 2], min_len=200)
        g = build(text, trial)
        n = len(text)
        for _ in range(20):
            xl = rng.randint(1, 60)
            x = rng.randint(0, n - xl)
            yl = rng.randint(xl, min(2 * xl - 1, n))
            y = rng.randint(max(0, x + xl - yl), min(x, n - yl))
            pp = proxy_pattern(g, x, x + xl)
            if len(naive_occ(text, x + pp.left_off, x + pp.right_cut, y, y + yl)) != 1:
                continue
            nav, ps_nav, pt_nav = Navigator(g), Navigator(g), Navigator(g)
            assert ipm_query(g, x, x + xl, y, y + yl, nav) == Progression(x, 1, 1)
            pseq(g, x, x + xl, ps_nav)
            proxy_text(g, y, y + yl, pp, pt_nav)
            assert nav.steps == ps_nav.steps + pt_nav.steps, (text, trial, x, xl, y, yl)
            checked += 1
    assert checked >= 300


def test_ratio_violation():
    g = build("aaaaaa", 0)
    with pytest.raises(RatioViolationError):
        ipm_query(g, 0, 2, 0, 4)


def test_empty_pattern_and_bounds():
    g = build("abc", 0)
    with pytest.raises(EmptyPatternError):
        ipm_query(g, 1, 1, 0, 1)
    with pytest.raises(OutOfRangeError):
        ipm_query(g, 0, 4, 0, 3)


def test_y_shorter_than_x_is_empty():
    g = build("abab", 0)
    assert ipm_query(g, 0, 3, 1, 3).count == 0


def test_end_to_end_oracle_equivalence():
    rng = random.Random(83)
    cases = 0
    for trial in range(120):
        text = random_text(rng, 80, (1, 2, 4, 26)[trial % 4])
        g = build(text, trial)
        n = len(text)
        for _ in range(25):
            xl = rng.randint(1, n)
            x = rng.randint(0, n - xl)
            yl = rng.randint(1, min(2 * xl - 1, n))
            y = rng.randint(0, n - yl)
            occ = ipm_query(g, x, x + xl, y, y + yl)
            assert list(occ.positions()) == naive_occ(text, x, x + xl, y, y + yl), \
                (text, trial, (x, x + xl), (y, y + yl))
            cases += 1
    assert cases == 3000


def test_periodic_stress():
    # heavy periodicity exercises the case-1 bulk acceptance path
    for text in ("a" * 120, "ab" * 60, "abc" * 40, "aab" * 40):
        g = build(text, 5)
        n = len(text)
        rng = random.Random(len(text))
        for _ in range(200):
            x, x2, y, y2 = random_ipm_pair(rng, n)
            occ = ipm_query(g, x, x2, y, y2)
            assert list(occ.positions()) == naive_occ(text, x, x2, y, y2), \
                (text, (x, x2), (y, y2))


def test_merge_two_shapes():
    p = Progression.of(0, 3, 4)   # 0 3 6 9
    q = Progression.of(9, 3, 2)   # 9 12: overlapping aligned
    assert _merge_all([p, q]) == Progression.of(0, 3, 5)
    assert _merge_all([q, p]) == Progression.of(0, 3, 5)
    # adjacent extension by a singleton
    assert _merge_all([p, Progression.of(12, 1, 1)]) == Progression.of(0, 3, 5)
    assert _merge_all([Progression.of(-3, 1, 1), p]) == Progression.of(-3, 3, 5)
    # misaligned singleton: not one progression
    with pytest.raises(InternalInvariantError):
        _merge_all([p, Progression.of(10, 1, 1)])
    # gap larger than one step
    with pytest.raises(InternalInvariantError):
        _merge_all([p, Progression.of(15, 3, 2)])
    # two singletons
    assert _merge_all([Progression.of(4, 1, 1), Progression.of(4, 1, 1)]) == \
        Progression.of(4, 1, 1)
    assert _merge_all([Progression.of(4, 1, 1), Progression.of(9, 1, 1)]) == \
        Progression.of(4, 5, 2)


def test_merge_all_interleaved_parts_raise():
    # verified parts are runs of consecutive answer terms, so interleaved
    # sub-progressions never reach the fold; even when their union is one
    # progression, meeting them is a bug
    evens = Progression.of(0, 2, 5)   # 0 2 4 6 8
    odds = Progression.of(1, 2, 5)    # 1 3 5 7 9
    with pytest.raises(InternalInvariantError):
        _merge_all([evens, odds])
    # a union that is not a progression is a bug and must raise
    with pytest.raises(InternalInvariantError):
        _merge_all([Progression.of(0, 2, 3), Progression.of(1, 1, 1),
                    Progression.of(9, 1, 1)])


def test_merge_all_folds_consecutive_runs_back():
    rng = random.Random(97)
    for _ in range(5000):
        whole = Progression.of(rng.randrange(-20, 20), rng.randint(1, 6), rng.randint(1, 12))
        terms = list(whole.positions())
        # runs of consecutive terms, plus repeated singletons and empty parts
        cuts = sorted(rng.sample(range(1, len(terms)), rng.randrange(len(terms))))
        bounds = [0, *cuts, len(terms)]
        parts = [Progression.of(terms[i], whole.diff, j - i) for i, j in zip(bounds, bounds[1:])]
        parts += [Progression.of(rng.choice(terms), 1, 1) for _ in range(rng.randint(0, 2))]
        parts += [EMPTY_PROGRESSION] * rng.randint(0, 2)
        rng.shuffle(parts)
        assert _merge_all(parts) == whole, parts
        # without one part: the exact union or a typed error, never a wrong answer
        for i in range(len(parts)):
            rest = parts[:i] + parts[i + 1:]
            union = sorted({pos for part in rest for pos in part.positions()})
            try:
                got = _merge_all(rest)
            except InternalInvariantError:
                continue
            assert list(got.positions()) == union, rest


def test_merge_all_non_progression_is_typed_internal_error():
    with pytest.raises(InternalInvariantError):
        _merge_all([Progression.of(0, 1, 1), Progression.of(1, 1, 1),
                    Progression.of(5, 1, 1)])


def test_merge_all_empty_and_single():
    assert _merge_all([]) == EMPTY_PROGRESSION
    assert _merge_all([EMPTY_PROGRESSION]) == EMPTY_PROGRESSION
    assert _merge_all([Progression.of(5, 1, 2)]) == Progression.of(5, 1, 2)


def test_ipm_empty_window_is_empty():
    g = build("abcd", 0)
    assert ipm_query(g, 0, 2, 3, 3).count == 0


def test_step_bound_per_query():
    rng = random.Random(89)
    for trial in range(40):
        text = random_text(rng, 128, (1, 2, 4, 26)[trial % 4])
        g = build(text, trial)
        nav = Navigator(g)
        for _ in range(25):
            x, x2, y, y2 = random_ipm_pair(rng, len(text))
            before = nav.steps
            ipm_query(g, x, x2, y, y2, nav)
            assert nav.steps - before <= 512 * (g.rounds + 1), \
                (text, trial, (x, x2), (y, y2), nav.steps - before)
