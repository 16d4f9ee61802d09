"""The index file format: ``save_index`` writes it, ``load_index`` reads it.

An index file is an ASCII header line, ``RLSLP1 version=2 seed=.. rounds=..
text_len=.. symbols=.. start=..``, then the ``arg0``, ``arg1`` and ``level``
columns in little-endian binary (``save_index``); a symbol's kind is its
level's parity.  ``load_index`` reads this one format and rejects any other
version or a seed outside [0, 2^64); every other check is ``rlslp.grammar``'s,
the one every built grammar passes too.  A build is byte-reproducible for a
fixed (text, seed).
"""

from __future__ import annotations

import sys
from array import array

from .errors import IndexFormatError
from .grammar import Grammar, SymbolTable

MAGIC = "RLSLP1"
FORMAT_VERSION = 2
_HEADER_FIELDS = {"version", "seed", "rounds", "text_len", "symbols", "start"}


def _arg_code(text_len: int) -> str:
    """Array typecode of the ``arg`` columns: int32, or int64 for texts so long
    that an id, exponent or codepoint may reach 2^31."""
    return "q" if text_len + 0x110000 >= 1 << 31 else "i"


def save_index(g: Grammar, path: str) -> None:
    """Write ``g`` as a version-2 index: an ASCII header line, then the
    ``arg0``, ``arg1`` and ``level`` columns in little-endian binary."""
    t = g.table
    code = _arg_code(g.text_len)
    cols = (array(code, t.arg0), array(code, t.arg1), array("H", t.level))
    if sys.byteorder == "big":
        for col in cols:
            col.byteswap()
    header = (f"{MAGIC} version={FORMAT_VERSION} seed={g.seed} rounds={g.rounds} "
              f"text_len={g.text_len} symbols={len(t)} start={g.start}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for col in cols:
            fh.write(col.tobytes())


def _parse_header(head: bytes) -> dict:
    """The fields of an index header line, its version and seed checked."""
    try:
        header = head.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not ASCII: {exc}") from None
    if len(header) != 7 or header[0] != MAGIC:
        raise IndexFormatError("bad header")
    fields = {}
    for item in header[1:]:
        key, _, val = item.partition("=")
        try:
            fields[key] = int(val)
        except ValueError:
            raise IndexFormatError(f"bad header field {item!r}") from None
    if set(fields) != _HEADER_FIELDS:
        raise IndexFormatError("bad header fields")
    if fields["version"] != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported version {fields['version']}")
    if not 0 <= fields["seed"] < 1 << 64:
        raise IndexFormatError(f"seed {fields['seed']} outside [0, 2^64)")
    return fields


def _read_columns(payload: bytes, count: int, text_len: int):
    """The ``arg0``, ``arg1`` and ``level`` lists of an index payload:
    ``count`` entries of ``arg0``, then of ``arg1`` (little-endian int32,
    int64 when ``_arg_code`` says so), then of ``level`` (little-endian
    uint16)."""
    code = _arg_code(text_len)
    arg0, arg1, level = array(code), array(code), array("H")
    cut = count * arg0.itemsize
    if count < 0 or len(payload) != 2 * cut + 2 * count:
        raise IndexFormatError(f"payload of {len(payload)} bytes does not hold "
                               f"symbols={count} records")
    arg0.frombytes(payload[:cut])
    arg1.frombytes(payload[cut:2 * cut])
    level.frombytes(payload[2 * cut:])
    if sys.byteorder == "big":
        for col in (arg0, arg1, level):
            col.byteswap()
    return arg0.tolist(), arg1.tolist(), level.tolist()


def load_index(path: str) -> Grammar:
    """Parse an index file.  Its columns become the table's columns, checked
    and given their explen in one pass (``SymbolTable.from_columns``); then
    ``Grammar`` checks the header's start, ``rounds`` and ``text_len``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IndexFormatError(f"cannot read index: {exc}") from None
    if not data:
        raise IndexFormatError("empty index file")
    head, _, body = data.partition(b"\n")
    fields = _parse_header(head)
    text_len = fields["text_len"]
    table = SymbolTable.from_columns(*_read_columns(body, fields["symbols"], text_len),
                                     text_len)
    return Grammar(table=table, start=fields["start"], rounds=fields["rounds"],
                   seed=fields["seed"], text_len=text_len)
