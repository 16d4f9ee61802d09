import random

import pytest

from rlslp.builder import build, level_string
from rlslp.errors import EmptyFragmentError, InternalInvariantError, OutOfRangeError
from rlslp.grammar import Grammar
from rlslp.navigator import Navigator
from rlslp.oracle import naive_pseq_levels
from rlslp.popped import pseq

from helpers import random_text, text_corpus


def _expand_runs(g, runs):
    return "".join(g.expand(sym) * e for sym, e in runs)


def test_whole_text_reconstructs():
    g = build("abracadabra", 2)
    ps = pseq(g, 0, g.text_len)
    assert _expand_runs(g, ps.runs()) == "abracadabra"


def test_single_character_fragment():
    g = build("xyz", 0)
    ps = pseq(g, 1, 2)
    assert ps.q == 0
    assert len(ps.left) == 1 and ps.right[0] is None
    sym, e = ps.left[0]
    assert e == 1 and g.expand(sym) == "y"


def test_errors():
    g = build("abc", 0)
    with pytest.raises(EmptyFragmentError):
        pseq(g, 1, 1)
    with pytest.raises(OutOfRangeError):
        pseq(g, 0, 4)


def test_round_count_exceeded_is_typed_internal_error():
    g = build("abracadabraabracadabra", 0)
    assert g.rounds > 1
    # Grammar rejects rounds=0 against this start symbol, so the bad copy is
    # made past its check, to reach pseq's own guard
    bad = Grammar(table=g.table, start=g.start, rounds=g.rounds, seed=g.seed,
                  text_len=g.text_len)
    object.__setattr__(bad, "rounds", 0)
    with pytest.raises(InternalInvariantError, match="round count"):
        pseq(bad, 0, g.text_len)


def test_exhaustive_small_fragments_against_oracle():
    for text, seed in text_corpus(28, 48, seed=41):
        g = build(text, seed)
        n = len(text)
        for x in range(n):
            for x2 in range(x + 1, n + 1):
                ps = pseq(g, x, x2)
                assert _expand_runs(g, ps.runs()) == text[x:x2]
                ora = naive_pseq_levels(g, x, x2)
                assert ps.q == ora.q
                for k in range(ps.q + 1):
                    for got, want in ((ps.left[k], ora.left[k]),
                                      (ps.right[k], ora.right[k])):
                        flat = [got[0]] * got[1] if got else []
                        assert flat == want, (text, seed, x, x2, k)
                # every popped block is a single (sym, exponent) run by
                # construction; q stays within the round count
                assert ps.q <= g.rounds + 1


def test_exhaustive_fragments_on_longer_texts():
    rng = random.Random(101)
    for sigma in (2, 26):
        text = random_text(rng, 128, sigma, min_len=96)
        g = build(text, sigma)
        n = len(text)
        for x in range(n):
            for x2 in range(x + 1, n + 1):
                ps = pseq(g, x, x2)
                assert _expand_runs(g, ps.runs()) == text[x:x2]


def test_expansion_offsets_are_running_sums():
    g = build("banana" * 4, 7)
    n = g.text_len
    for x, x2 in ((0, n), (3, 17), (5, 6), (10, 20)):
        ps = pseq(g, x, x2)
        total = x2 - x
        assert ps.left_exp[-1] + ps.right_exp[-1] == total
        for k in range(ps.q + 1):
            lrun = ps.left[k]
            width = lrun[1] * g.table.explen[lrun[0]] if lrun else 0
            assert ps.left_exp[k + 1] - ps.left_exp[k] == width


def test_occurrence_transfer_between_matching_fragments():
    # matching fragments produce the same shrunken strings at every level,
    # and the induced occurrence sits where the expansion sums predict
    rng = random.Random(43)
    for trial in range(12):
        text = random_text(rng, 96, (1, 2, 4)[trial % 3])
        g = build(text, trial)
        n = len(text)
        frags = {}
        for x in range(n):
            for x2 in range(x + 1, min(x + 16, n) + 1):
                frags.setdefault(text[x:x2], []).append(x)
        levels = {k: level_string(g, k).symbols for k in range(g.rounds + 1)}
        exp_prefix = {}
        for k, syms in levels.items():
            acc = [0]
            for s in syms:
                acc.append(acc[-1] + g.table.explen[s])
            exp_prefix[k] = acc
        for sub, starts in frags.items():
            if len(starts) < 2:
                continue
            ora = [naive_pseq_levels(g, x, x + len(sub)) for x in starts[:3]]
            base = ora[0]
            for other in ora[1:]:
                assert other.xbar == base.xbar
                assert other.left == base.left and other.right == base.right
            # induced occurrence position check (lemma-style) per level
            for x, o in zip(starts[:3], ora):
                left_sum = 0
                for k in range(o.q + 1):
                    if not o.xbar[k]:
                        break
                    want_text_pos = x + left_sum
                    # find i_k via the expansion prefix sums of T_k
                    i_k = exp_prefix[k].index(want_text_pos)
                    assert levels[k][i_k:i_k + len(o.xbar[k])] == o.xbar[k]
                    left_sum += sum(g.table.explen[s] for s in o.left[k])


def test_boundary_walk_step_count():
    # the whole decomposition touches O(r) nodes
    for text, seed in text_corpus(20, 256, seed=47):
        g = build(text, seed)
        nav = Navigator(g)
        nav.steps = 0
        pseq(g, 0, g.text_len, nav)
        assert nav.steps <= 24 * (g.rounds + 1)
