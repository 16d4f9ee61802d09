import pytest
from hypothesis import given, settings, strategies as st

from rlslp.builder import LevelString, build, shrink_pc
from rlslp.errors import IndexFormatError, UnknownSymbolError
from rlslp.grammar import PAIR, POWER, TERMINAL, Grammar, SymbolTable

from helpers import terminal_columns, text_corpus


def _table(letters, records, text_len):
    """``SymbolTable.from_columns`` of one terminal per letter followed by
    ``records``, each ``(arg0, arg1, level)``."""
    cols, _ = terminal_columns(letters)
    for col, values in zip(cols, zip(*records)):
        col.extend(values)
    return SymbolTable.from_columns(*cols, text_len)


def test_terminal_interning_idempotent():
    # build makes one terminal per distinct character, in first-occurrence order
    t = build("abracadabra", 0).table
    assert [t.arg0[s] for s in range(len(t)) if t.level[s] == 0] == [ord(ch) for ch in "abrcd"]


def test_terminal_record():
    t = _table("a", [], 1)
    assert t.explen[0] == 1
    assert t.level[0] == 0
    assert t.kind[0] == TERMINAL


def test_pair_explen_is_sum():
    t = _table("ab", [(0, 1, 2)], 2)
    assert t.explen[2] == 2
    assert t.kind[2] == PAIR


def test_pair_requires_distinct_children():
    with pytest.raises(IndexFormatError, match="^invalid symbol 1: pair children must differ, "
                                               "got 0 twice$"):
        _table("a", [(0, 0, 2)], 2)


def test_pair_interning_idempotent_and_level_fixed():
    # one pair round makes one id per pair, at the round's level
    cols, (a, b) = terminal_columns("ab")
    out = shrink_pc(LevelString(5, [a, b, a, b]), {a}, *cols)
    assert out.symbols == [2, 2]
    assert cols == ([97, 98, a], [0, 0, b], [0, 0, 6])


def test_pair_level_must_exceed_children():
    with pytest.raises(IndexFormatError, match="^invalid symbol 3: pair level 2 not above "
                                               "children levels 2, 0$"):
        _table("ab", [(0, 1, 2), (2, 1, 2)], 3)


def test_power_explen_and_errors():
    t = _table("a", [(0, 3, 1)], 3)
    assert t.explen[1] == 3
    assert t.kind[1] == POWER
    with pytest.raises(IndexFormatError, match="^invalid symbol 1: power exponent must be "
                                               ">= 2, got 1$"):
        _table("a", [(0, 1, 1)], 3)
    with pytest.raises(IndexFormatError, match="^invalid symbol 3: power level 1 not above "
                                               "base level 2$"):
        _table("ab", [(0, 1, 2), (2, 4, 1)], 8)


def test_expand_base_cases():
    g = build("a", 0)
    assert g.expand(g.start) == "a"
    t = _table("ab", [(0, 3, 1), (0, 2, 1), (3, 1, 2)], 3)
    g2 = Grammar(table=t, start=2, rounds=1, seed=0, text_len=3)
    assert g2.expand(2) == "aaa"
    g3 = Grammar(table=t, start=4, rounds=2, seed=0, text_len=3)
    assert g3.expand(4) == "aab"


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
