import pytest
from hypothesis import given, settings, strategies as st

from rlslp.builder import LevelString, build, shrink_pc
from rlslp.errors import (
    BadExponentError,
    BadLevelError,
    EqualChildrenError,
    UnknownSymbolError,
)
from rlslp.grammar import PAIR, POWER, TERMINAL

from helpers import terminal_table, text_corpus


def test_terminal_interning_idempotent():
    # build makes one terminal per distinct character, in first-occurrence order
    t = build("abracadabra", 0).table
    assert [t.arg0[s] for s in range(len(t)) if t.level[s] == 0] == [ord(ch) for ch in "abrcd"]


def test_terminal_record():
    t, (a,) = terminal_table("a")
    assert t.explen[a] == 1
    assert t.level[a] == 0
    assert t.kind[a] == TERMINAL


def test_pair_explen_is_sum():
    t, (a, b) = terminal_table("ab")
    p = t.add_pair(a, b, 2)
    assert t.explen[p] == 2
    assert t.kind[p] == PAIR


def test_pair_requires_distinct_children():
    t, (a,) = terminal_table("a")
    with pytest.raises(EqualChildrenError):
        t.add_pair(a, a, 2)


def test_pair_interning_idempotent_and_level_fixed():
    # one pair round makes one id per pair, at the round's level
    t, (a, b) = terminal_table("ab")
    out = shrink_pc(LevelString(5, [a, b, a, b]), {a}, t)
    assert out.symbols == [2, 2]
    assert (t.arg0, t.arg1, t.level) == ([97, 98, a], [0, 0, b], [0, 0, 6])


def test_pair_level_must_exceed_children():
    t, (a, b) = terminal_table("ab")
    with pytest.raises(BadLevelError):
        t.add_pair(a, b, 0)


def test_power_explen_and_errors():
    t, (a,) = terminal_table("a")
    p = t.add_power(a, 3, 1)
    assert t.explen[p] == 3
    assert t.kind[p] == POWER
    with pytest.raises(BadExponentError):
        t.add_power(a, 1, 1)
    with pytest.raises(BadLevelError):
        t.add_power(a, 4, 0)
    assert len(t) == 2


def test_expand_base_cases():
    g = build("a", 0)
    assert g.expand(g.start) == "a"
    t, (a, b) = terminal_table("ab")
    p3 = t.add_power(a, 3, 1)
    from rlslp.grammar import Grammar
    g2 = Grammar(table=t, start=p3, rounds=1, seed=0, text_len=3)
    assert g2.expand(p3) == "aaa"
    p2 = t.add_power(a, 2, 1)
    pair = t.add_pair(p2, b, 2)
    g3 = Grammar(table=t, start=pair, rounds=2, seed=0, text_len=3)
    assert g3.expand(pair) == "aab"


def test_expand_unknown_symbol():
    g = build("ab", 0)
    with pytest.raises(UnknownSymbolError):
        g.expand(len(g.table) + 5)


@given(st.text(alphabet="ab", min_size=1, max_size=64), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_explen_matches_expansion_length(text, seed):
    g = build(text, seed)
    t = g.table
    for sid in range(len(t)):
        assert t.explen[sid] == len(g.expand(sid))


def test_topological_order_and_hash_consing():
    for text, seed in text_corpus(24, 64, seed=3):
        g = build(text, seed)
        t = g.table
        seen = set()
        kind = t.kind
        for sid in range(len(t)):
            if kind[sid] == PAIR:
                assert t.arg0[sid] < sid and t.arg1[sid] < sid
                key = (PAIR, t.arg0[sid], t.arg1[sid])
            elif kind[sid] == POWER:
                assert t.arg0[sid] < sid
                key = (POWER, t.arg0[sid], t.arg1[sid])
            else:
                key = (TERMINAL, t.arg0[sid], 0)
            assert key not in seen
            seen.add(key)
            # arguments live strictly below their symbol
            if kind[sid] != TERMINAL:
                assert t.level[t.arg0[sid]] < t.level[sid]
