"""Run-length straight-line programs, and the one check of a grammar.

A symbol is a terminal character, a pair production ``BC`` with ``B != C``,
or a power production ``B^m`` with ``m >= 2``.  Every symbol has a dense
integer id and stores the length of its expansion and the compression round
that created it.  ``SymbolTable.from_columns``, the one way to make a table,
checks each record and ``Grammar`` its start symbol, built or loaded alike;
each rule and its message is stated here once.  Symbol ids are assigned in
creation order, so a grammar built from a fixed (text, seed) always
serializes the same way.
"""

from __future__ import annotations

from typing import NoReturn

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
        tests each record's rules in turn (children made before it, distinct
        pair children, an exponent of at least 2, a level above its
        children's, a codepoint in range, an explen of at most ``text_len``)
        and raises ``IndexFormatError`` at the first that fails, or first at
        a repeated production below it; then one set rejects a production
        repeated under a new id."""
        count = len(level)
        explen = [0] * count
        # One int key per production, the level left out; the kinds' ranges
        # are disjoint once the record is checked: codepoints below 0x110000,
        # pairs from there up, powers (exponent >= 2) below 0.
        keys = [0] * count
        for sid, b, c, lv in zip(range(count), arg0, arg1, level):
            if lv & 1:  # a power
                if not 0 <= b < sid:
                    _reject(keys, sid, _UNMADE.format(b))
                if c < 2:
                    _reject(keys, sid, f"power exponent must be >= 2, got {c}")
                if lv <= level[b]:
                    _reject(keys, sid, f"power level {lv} not above base level {level[b]}")
                e = c * explen[b]
                keys[sid] = -1 - (c * count + b)
            elif lv:  # a pair
                if not (0 <= b < sid and 0 <= c < sid):
                    _reject(keys, sid, _UNMADE.format(c if 0 <= b < sid else b))
                if b == c:
                    _reject(keys, sid, f"pair children must differ, got {b} twice")
                if lv <= level[b] or lv <= level[c]:
                    _reject(keys, sid, f"pair level {lv} not above children levels "
                                       f"{level[b]}, {level[c]}")
                e = explen[b] + explen[c]
                keys[sid] = 0x110000 + b * count + c
            else:  # a terminal
                if c:
                    _reject_duplicate(keys, sid)
                    raise IndexFormatError(f"terminal with arg1 {c} at symbol {sid}")
                if not 0 <= b < 0x110000:
                    _reject(keys, sid, f"codepoint {b} outside [0, 0x110000)")
                e = 1
                keys[sid] = b
            # Every symbol of a built grammar occurs in the text's parse, so a
            # longer one can only be unreachable: reject it before a chain of
            # powers makes the lengths of the symbols above it huge.
            if e > text_len:
                _reject(keys, sid, f"expansion length {e} exceeds text_len {text_len}")
            explen[sid] = e
        if len(set(keys)) != count:
            _reject_duplicate(keys, count)
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


_UNMADE = "symbol id {} not in table"  # a child that is not an earlier symbol


def _reject(keys: list[int], sid: int, fault: str) -> NoReturn:
    """Raise ``invalid symbol <sid>: <fault>``, or first the error of a
    production below ``sid`` that repeats an earlier one."""
    _reject_duplicate(keys, sid)
    raise IndexFormatError(f"invalid symbol {sid}: {fault}")


class Record:
    """A record whose fields are its class's ``__slots__``, given by position
    or keyword, equal to a record of its class with equal fields and shown as
    ``Name(field=value, ...)``: mutable and unhashable, unlike a
    ``FrozenRecord``.  Not a dataclass, so a query never imports ``dataclasses``."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        # An __init__ written per class, as dataclasses writes one, is as fast
        # as a hand-written one.  It sets each slot plainly, or through the
        # slot's descriptor past a frozen record's __setattr__, then runs the
        # class's __post_init__ check if it has one.
        names = cls.__slots__
        if not names:
            return
        frozen = cls.__setattr__ is not object.__setattr__
        code = [f"def __init__(self, {', '.join(names)}):"]
        code += [f"    _set_{name}(self, {name})" if frozen else f"    self.{name} = {name}"
                 for name in names]
        code += ["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names} if frozen else {}
        exec("\n".join(code), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle through the constructor
        return type(self), self._values()


class FrozenRecord(Record):
    """A ``Record`` whose fields cannot be set again or deleted once it is
    made, hashed as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")


class Grammar(FrozenRecord):
    """Immutable grammar: symbol table, start symbol, round count, seed.

    Safe for concurrent reads once built; queries never mutate it.  Made
    only with a start in the table, of explen ``text_len`` and level
    ``rounds``: else ``IndexFormatError``.
    """

    __slots__ = ("table", "start", "rounds", "seed", "text_len")

    def __post_init__(self) -> None:
        t = self.table
        if not 0 <= self.start < len(t):
            raise IndexFormatError("start symbol out of range")
        if t.explen[self.start] != self.text_len:
            raise IndexFormatError("text_len does not match the start symbol expansion")
        if t.level[self.start] != self.rounds:
            raise IndexFormatError(f"rounds={self.rounds} does not match the start symbol's "
                                   f"level {t.level[self.start]}")

    def expand(self, sid: int) -> str:
        """Expansion string of a symbol, of length ``explen(sid)``: the
        codepoints of ``table.below(sid, 0)``.  For tests and desk-scale use,
        not for large grammars."""
        arg0 = self.table.arg0
        return "".join([chr(arg0[s]) for s in self.table.below(sid, 0)])
