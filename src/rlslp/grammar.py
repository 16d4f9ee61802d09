"""Symbol table for run-length straight-line programs.

A symbol is a terminal character, a pair production ``BC`` with ``B != C``,
or a power production ``B^m`` with ``m >= 2``.  Every symbol has a dense
integer id and stores the length of its expansion and the compression round
that created it.  ``SymbolTable.from_columns`` is the one way to make a
table: it checks the records of a built and of a loaded grammar alike, and
the table stores nothing else.  Symbol ids are assigned in creation order,
so a grammar built from a fixed (text, seed) always serializes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexFormatError, UnknownSymbolError

TERMINAL = 0
PAIR = 1
POWER = 2


class SymbolTable:
    """Read-only store of symbols.

    Four parallel lists, cheap to read in query hot loops: ``arg0``
    (codepoint / left child / base), ``arg1`` (right child / exponent, 0 for
    a terminal), ``level`` (the round that made the symbol) and ``explen``.
    A symbol's kind is its level's parity: 0 a terminal, odd a power, even
    above 0 a pair; ``kind`` derives that list in O(n) for tests and
    perfbench, and no other module of the package reads it.  A table is made
    only by ``from_columns``, from the columns the builder appends to or an
    index file holds, so every table the package holds has passed its checks.
    """

    __slots__ = ("arg0", "arg1", "level", "explen")

    def __len__(self) -> int:
        return len(self.level)

    @classmethod
    def from_columns(cls, arg0: list[int], arg1: list[int], level: list[int],
                     text_len: int) -> SymbolTable:
        """The table whose ``arg0``, ``arg1`` and ``level`` columns are the
        given lists of one length, kept as they are.  A record's kind is its
        level's parity and a terminal's ``arg1`` is 0.  One pass over the ids
        checks each record (children made before it, distinct pair children,
        an exponent of at least 2, a level above its children's, a codepoint
        in range), computes its explen and bounds it by ``text_len``; then one
        set rejects a production repeated under a new id.  Raises
        ``IndexFormatError`` naming the lowest faulty id."""
        count = len(level)
        explen = [0] * count
        # One int key per production, the level left out; the kinds' ranges
        # are disjoint once the record is checked: codepoints below 0x110000,
        # pairs from there up, powers (exponent >= 2) below 0.
        keys = [0] * count
        for sid, b, c, lv in zip(range(count), arg0, arg1, level):
            if lv & 1:
                if not 0 <= b < sid or c < 2 or lv <= level[b]:
                    break
                e = c * explen[b]
                keys[sid] = -1 - (c * count + b)
            elif lv:
                if (not (0 <= b < sid and 0 <= c < sid) or b == c
                        or lv <= level[b] or lv <= level[c]):
                    break
                e = explen[b] + explen[c]
                keys[sid] = 0x110000 + b * count + c
            elif c or not 0 <= b < 0x110000:
                break
            else:
                e = 1
                keys[sid] = b
            # Every symbol of a built grammar occurs in the text's parse, so a
            # longer one can only be unreachable: reject it before a chain of
            # powers makes the lengths of the symbols above it huge.
            if e > text_len:
                break
            explen[sid] = e
        else:  # no record is faulty
            sid = count
        if sid < count or len(set(keys)) != count:
            _reject_duplicate(keys, sid)
            _reject_record(level, explen, sid, arg0[sid], arg1[sid], text_len)
        table = cls.__new__(cls)
        table.arg0, table.arg1, table.level, table.explen = arg0, arg1, level, explen
        return table

    @property
    def kind(self) -> list[int]:
        """Each symbol's ``TERMINAL``, ``PAIR`` or ``POWER``, derived from ``level``."""
        return [POWER if lv & 1 else PAIR if lv else TERMINAL for lv in self.level]

    def check(self, sid: int) -> None:
        if not (0 <= sid < len(self.level)):
            raise UnknownSymbolError(f"symbol id {sid} not in table")

    def below(self, sid: int, k: int) -> list[int]:
        """The symbols of level at most ``k >= 0`` that ``sid`` expands to, in
        text order: its level-``k`` string.  One iterative walk, so a grammar
        of any depth expands without recursion."""
        self.check(sid)
        lvl, arg0, arg1 = self.level, self.arg0, self.arg1
        out: list[int] = []
        stack = [sid]
        while stack:
            s = stack.pop()
            if lvl[s] <= k:
                out.append(s)
            elif lvl[s] & 1:  # a power
                stack.extend([arg0[s]] * arg1[s])
            else:  # a pair
                stack.append(arg1[s])
                stack.append(arg0[s])
        return out


def _reject_duplicate(keys: list[int], upto: int) -> None:
    """Raise ``duplicate symbol <id>`` at the first id below ``upto`` whose
    key repeats an earlier one, if there is one."""
    seen = set()
    for sid in range(upto):
        if keys[sid] in seen:
            raise IndexFormatError(f"duplicate symbol {sid}")
        seen.add(keys[sid])


def _reject_record(level: list[int], explen: list[int], sid: int, b: int, c: int,
                   text_len: int) -> None:
    """Raise the error of record ``sid``, ``(b, c, level[sid])``, which
    ``from_columns`` found faulty: the first rule it breaks, in the order
    ``from_columns`` checks them, or its expansion length above ``text_len``."""
    lv = level[sid]
    if not lv:  # a terminal
        if c:
            raise IndexFormatError(f"terminal with arg1 {c} at symbol {sid}")
        fault = (f"codepoint {b} outside [0, 0x110000)" if not 0 <= b < 0x110000
                 else f"expansion length 1 exceeds text_len {text_len}")
    elif not 0 <= b < sid:
        fault = f"symbol id {b} not in table"
    elif lv & 1:  # a power
        if c < 2:
            fault = f"power exponent must be >= 2, got {c}"
        elif lv <= level[b]:
            fault = f"power level {lv} not above base level {level[b]}"
        else:
            fault = f"expansion length {c * explen[b]} exceeds text_len {text_len}"
    elif not 0 <= c < sid:
        fault = f"symbol id {c} not in table"
    elif b == c:
        fault = f"pair children must differ, got {b} twice"
    elif lv <= level[b] or lv <= level[c]:
        fault = f"pair level {lv} not above children levels {level[b]}, {level[c]}"
    else:
        fault = f"expansion length {explen[b] + explen[c]} exceeds text_len {text_len}"
    raise IndexFormatError(f"invalid symbol {sid}: {fault}")


@dataclass(frozen=True)
class Grammar:
    """Immutable grammar: symbol table, start symbol, round count, seed.

    Safe for concurrent reads once built; queries never mutate it.
    """

    table: SymbolTable
    start: int
    rounds: int
    seed: int
    text_len: int

    def expand(self, sid: int) -> str:
        """Expansion string of a symbol, of length ``explen(sid)``: the
        codepoints of ``table.below(sid, 0)``.  For tests and desk-scale use,
        not for large grammars."""
        arg0 = self.table.arg0
        return "".join([chr(arg0[s]) for s in self.table.below(sid, 0)])
