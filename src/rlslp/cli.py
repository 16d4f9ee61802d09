"""Command-line front end: build indexes, answer queries, print stats, self-test.

An index file is an ASCII header line, ``RLSLP1 version=2 seed=.. rounds=..
text_len=.. symbols=.. start=..``, then the ``arg0``, ``arg1`` and ``level``
columns in little-endian binary (``save_index``); a symbol's kind is its
level's parity.  Version-1 files (one ASCII line per symbol) still load;
their record errors name the symbol id, the line's first token, except for
a bad shape, id, tag or level, which name the line.  A build is
byte-reproducible for a fixed (text, seed).  Text is read as raw bytes
mapped to codepoints 0-255 unless --utf8 is given.

Exit codes: 0 success, 2 malformed arguments (a bad selftest option
included), unreadable/invalid input (an index whose header or levels
disagree with its symbols, a level above 65535 or a version-2 payload of
the wrong size included), an index that cannot be written or a stdout that
cannot be written (one ``error: cannot write output`` line on stderr, any
command), 3 for out-of-range positions or an IPM ratio violation, 4 when a
query fails an internal consistency check (a bug; the message names the
check).

``query`` takes one query as words, ``lce i i2``, ``revlce i i2`` or ``ipm x
x2 y y2`` (``_ARITY``): the words are what argparse leaves of the command
line, in order, so a word like ``-x`` keeps its place.  ``query --batch``
loads the index once and reads one such query per stdin line; both go
through one parser, ``_answer``.  An answer goes to stdout.  A one-shot
error goes to stderr: ``error: bad query line '...'`` (2, the words are not
one of the three forms), ``error: ...`` (3, a query error) or ``internal
error: ...`` (4).  In a batch the same line goes to stdout instead, the
stream goes on, and the exit code is the worst seen.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from array import array
from contextlib import redirect_stdout

from .builder import build
from .errors import IndexFormatError, InternalInvariantError, RlslpError
from .extension import lce, rev_lce
from .grammar import PAIR, POWER, TERMINAL, Grammar, SymbolTable
from .ipm import ipm_query, proxy_pattern, rle_match
from .oracle import (_ORACLE_CAP, naive_lce, naive_occ, naive_pseq_levels, naive_rev_lce,
                     naive_rle_match)
from .popped import pseq

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
    """The fields of an index header line, either version."""
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
    if fields["version"] not in (1, FORMAT_VERSION):
        raise IndexFormatError(f"unsupported version {fields['version']}")
    return fields


def _read_v1(body: bytes, count: int) -> list[tuple[int, int, int]]:
    """The ``(arg0, arg1, level)`` records of a version-1 body: one ASCII line
    per symbol in id order, ``sid T cp``, ``sid P b c level`` or ``sid R b m
    level``."""
    try:
        lines = body.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not ASCII: {exc}") from None
    if len(lines) != count:
        raise IndexFormatError("symbol count does not match header")
    records = []
    try:
        for lineno, line in enumerate(lines, 1):
            sid, tag, *rest = line.split()
            if int(sid) != lineno - 1:
                raise IndexFormatError(f"ids must be contiguous, got {sid} on line {lineno}")
            if tag == "T" and len(rest) == 1:
                b, c, lv = int(rest[0]), 0, 0
            elif tag in ("P", "R") and len(rest) == 3:
                b, c, lv = map(int, rest)
                if tag == "P" and (lv % 2 or not lv):  # level 0 would read as a terminal
                    raise IndexFormatError(f"pair on {'odd ' if lv else ''}level {lv} "
                                           f"on line {lineno}")
                if tag == "R" and lv % 2 == 0:
                    raise IndexFormatError(f"power on even level {lv} on line {lineno}")
            else:
                raise IndexFormatError(f"bad record on line {lineno}")
            records.append((b, c, lv))
    except (ValueError, IndexError):
        raise IndexFormatError(f"bad record on line {lineno}") from None
    return records


def _read_v2(payload: bytes, count: int, text_len: int):
    """The ``(arg0, arg1, level)`` records of a version-2 payload: ``count``
    entries of ``arg0``, then of ``arg1`` (little-endian int32, int64 when
    ``_arg_code`` says so), then of ``level`` (little-endian uint16)."""
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
    return zip(arg0.tolist(), arg1.tolist(), level.tolist())


def _table(records, count: int) -> SymbolTable:
    """The table of ``count`` ``(arg0, arg1, level)`` records in id order, each
    checked and appended by ``SymbolTable.add_*``; the kind follows from the
    level (a terminal's ``arg1`` is 0), and a level above 65535, which a
    version-1 line can state but ``save_index`` cannot write, is rejected.
    One local dict, dropped on return, rejects a production repeated under
    a new id."""
    table = SymbolTable()
    add_terminal, add_pair, add_power = table.add_terminal, table.add_pair, table.add_power
    # One int key per production, the level left out; the kinds' ranges are
    # disjoint once add_* has checked the record: codepoints below 0x110000,
    # pairs from there up, powers (exponent >= 2) below 0.
    seen: dict[int, int] = {}
    try:
        for sid, (b, c, lv) in enumerate(records):
            if lv > 0xFFFF:  # what the version-2 level column can hold
                raise IndexFormatError(f"level {lv} above 65535 at symbol {sid}")
            if lv & 1:
                add_power(b, c, lv)
                key = -1 - (c * count + b)
            elif lv:
                add_pair(b, c, lv)
                key = 0x110000 + b * count + c
            elif c:
                raise IndexFormatError(f"terminal with arg1 {c} at symbol {sid}")
            else:
                add_terminal(b)
                key = b
            if seen.setdefault(key, sid) != sid:
                raise IndexFormatError(f"duplicate symbol {sid}")
    except IndexFormatError:
        raise
    except RlslpError as exc:
        raise IndexFormatError(f"invalid symbol {sid}: {exc}") from None
    return table


def load_index(path: str) -> Grammar:
    """Parse an index file of either version, sending its records through
    one check-and-append loop; explen is recomputed.  The returned table
    keeps no intern dicts: queries read only the per-symbol arrays."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IndexFormatError(f"cannot read index: {exc}") from None
    if not data:
        raise IndexFormatError("empty index file")
    head, _, body = data.partition(b"\n")
    fields = _parse_header(head)
    if not 0 <= fields["seed"] < 1 << 64:
        raise IndexFormatError(f"seed {fields['seed']} outside [0, 2^64)")
    count = fields["symbols"]
    if fields["version"] == 1:
        table = _table(_read_v1(body, count), count)
    else:
        table = _table(_read_v2(body, count, fields["text_len"]), count)

    start = fields["start"]
    if not (0 <= start < len(table)):
        raise IndexFormatError("start symbol out of range")
    g = Grammar(table=table, start=start, rounds=fields["rounds"],
                seed=fields["seed"], text_len=fields["text_len"])
    if table.explen[start] != g.text_len:
        raise IndexFormatError("text_len does not match the start symbol expansion")
    if table.level[start] != g.rounds:
        raise IndexFormatError(f"rounds={g.rounds} does not match the start symbol's level "
                               f"{table.level[start]}")
    return g


def _fail(message: object) -> int:
    """Print ``message`` as one ``error:`` line on stderr; the exit code is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_text(args) -> str:
    if args.text is not None:
        raw = args.text.encode("utf-8")
    else:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise SystemExit(_fail(f"cannot read input: {exc}"))
    if args.utf8:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SystemExit(_fail(f"input is not valid UTF-8: {exc}"))
    return raw.decode("latin-1")  # raw bytes as codepoints 0-255


def _cmd_build(args) -> int:
    text = _read_text(args)
    if not text:
        return _fail("input text is empty")
    g = build(text, args.seed)
    try:
        save_index(g, args.output)
    except OSError as exc:
        return _fail(f"cannot write index: {exc}")
    print(f"built index: {len(g.table)} symbols, {g.rounds} rounds, "
          f"text_len {g.text_len}, seed {g.seed}")
    return 0


_ARITY = {"lce": 2, "revlce": 2, "ipm": 4}


def _answer(g: Grammar, line: str) -> tuple[str, int]:
    """The output line and exit code of one query line: ``op``, then its
    ``_ARITY[op]`` integers."""
    op, *args = line.split() or [""]
    try:
        nums = [int(a) for a in args]
    except ValueError:
        nums = None
    if nums is None or len(nums) != _ARITY.get(op):
        return f"error: bad query line {line.strip()!r}", 2
    try:
        if op == "lce":
            return str(lce(g, *nums)), 0
        if op == "revlce":
            return str(rev_lce(g, *nums)), 0
        occ = ipm_query(g, *nums)
        return f"{occ.start} {occ.diff} {occ.count}", 0
    except InternalInvariantError as exc:
        return f"internal error: {exc}", 4
    except RlslpError as exc:
        return f"error: {exc}", 3


def _cmd_query(args) -> int:
    if args.batch == bool(args.query):
        return _fail("query takes one of lce, revlce, ipm or --batch")
    g = load_index(args.index)
    if not args.batch:
        out, code = _answer(g, " ".join(args.query))
        print(out, file=sys.stderr if code else sys.stdout)
        return code
    worst = 0
    for line in sys.stdin:
        out, code = _answer(g, line)
        print(out, flush=True)
        worst = max(worst, code)
    return worst


def _cmd_stats(args) -> int:
    g = load_index(args.index)
    t = g.table
    kind = t.kind
    print(f"rounds: {g.rounds}")
    print(f"symbols: {len(t)}")
    print(f"text_len: {g.text_len}")
    print(f"terminals: {kind.count(TERMINAL)}")
    print(f"pairs: {kind.count(PAIR)}")
    print(f"powers: {kind.count(POWER)}")
    print(f"seed: {g.seed}")
    with open(args.index, "rb") as fh:
        print(f"format_version: {_parse_header(fh.readline())['version']}")
    print(f"index_bytes_per_char: {os.path.getsize(args.index) / g.text_len:.3f}")
    return 0


def _random_text(rng: random.Random, max_len: int, sigma: int) -> str:
    length = rng.randint(1, max_len)
    return "".join(chr(ord("a") + rng.randrange(sigma)) for _ in range(length))


def _selftest_case(rng: random.Random, max_len: int, sigma: int, case_seed: int) -> str | None:
    """One randomized round of every oracle-equivalence suite.

    Returns None on success, else a human-readable counterexample.
    """
    text = _random_text(rng, max_len, sigma)
    n = len(text)
    g = build(text, case_seed)

    def ctx(what, detail):
        return (f"{what}: text={text!r} build_seed={case_seed} {detail}")

    i, i2 = rng.randint(0, n), rng.randint(0, n)
    got, want = lce(g, i, i2), naive_lce(text, i, i2)
    if got != want:
        return ctx("lce mismatch", f"i={i} i2={i2} got={got} want={want}")
    got, want = rev_lce(g, i, i2), naive_rev_lce(text, i, i2)
    if got != want:
        return ctx("rev_lce mismatch", f"i={i} i2={i2} got={got} want={want}")

    x = rng.randrange(n)
    x2 = rng.randint(x + 1, n)
    ps = pseq(g, x, x2)
    rebuilt = "".join(g.expand(sym) * e for sym, e in ps.runs())
    if rebuilt != text[x:x2]:
        return ctx("pseq expansion mismatch", f"x={x} x2={x2} got={rebuilt!r}")
    npp = naive_pseq_levels(g, x, x2)
    if npp.q != ps.q:
        return ctx("pseq level count mismatch", f"x={x} x2={x2} got q={ps.q} want {npp.q}")
    pp = proxy_pattern(g, x, x2, ps=ps)
    if pp.level != npp.proxy_level:
        return ctx("proxy level mismatch", f"x={x} x2={x2} got={pp.level} want={npp.proxy_level}")
    if [s for s, e in pp.rle for _ in range(e)] != npp.xbar[npp.proxy_level]:
        return ctx("proxy pattern mismatch", f"x={x} x2={x2}")

    # random RLE matching case over a small alphabet
    def rand_runs(max_runs):
        runs = []
        last = None
        for _ in range(rng.randint(1, max_runs)):
            sym = rng.randrange(3)
            if sym == last:
                continue
            runs.append((sym, rng.randint(1, 4)))
            last = sym
        return runs

    pat, sub = rand_runs(4), rand_runs(12)
    got_pos = sorted(p for prog in rle_match(pat, sub) for p in prog.positions())
    want_pos = naive_rle_match(pat, sub)
    if got_pos != want_pos:
        return ctx("rle_match mismatch", f"pat={pat} sub={sub} got={got_pos} want={want_pos}")

    # IPM query with |Y| < 2|X|
    xl = rng.randint(1, n)
    x = rng.randint(0, n - xl)
    ymax = min(2 * xl - 1, n)
    yl = rng.randint(1, ymax)
    y = rng.randint(0, n - yl)
    occ = ipm_query(g, x, x + xl, y, y + yl)
    want_list = naive_occ(text, x, x + xl, y, y + yl)
    if list(occ.positions()) != want_list:
        return ctx("ipm mismatch",
                   f"x={x} x2={x + xl} y={y} y2={y + yl} "
                   f"got={list(occ.positions())} want={want_list}")
    return None


def _cmd_selftest(args) -> int:
    try:
        sigmas = [int(s) for s in args.alphabet.split(",") if s]
    except ValueError:
        sigmas = []
    top = 0x110000 - ord("a")  # texts are drawn from chr(ord("a") + i), i < size
    if not sigmas or not all(1 <= s <= top for s in sigmas):
        return _fail(f"--alphabet {args.alphabet!r} needs sizes in [1, {top}]")
    if args.trials < 0:
        return _fail(f"--trials {args.trials} is negative")
    if not 1 <= args.max_len <= _ORACLE_CAP:
        return _fail(f"--max-len {args.max_len} outside [1, {_ORACLE_CAP}]")
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        sigma = sigmas[trial % len(sigmas)]
        failure = _selftest_case(rng, args.max_len, sigma, args.seed + trial)
        if failure is not None:
            print(f"selftest FAILED at trial {trial}")
            print(failure)
            return 1
    print(f"selftest passed: {args.trials} trials, max_len {args.max_len}, "
          f"alphabets {sigmas}")
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rlslp",
                                 description="Run-length grammar text index")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an index file from a text")
    src = b.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path of the input text")
    src.add_argument("--text", help="literal input text")
    b.add_argument("--seed", type=int, default=0, help="builder seed (default 0)")
    b.add_argument("--output", required=True, help="path of the index file to write")
    b.add_argument("--utf8", action="store_true",
                   help="treat input as UTF-8 instead of raw bytes")
    b.set_defaults(func=_cmd_build)

    qp = sub.add_parser("query", help="answer one query, or one per stdin line, against an index",
                        usage="%(prog)s [-h] --index INDEX [--batch] "
                              "[lce i i2 | revlce i i2 | ipm x x2 y y2]")
    qp.add_argument("--index", required=True)
    qp.add_argument("--batch", action="store_true",
                    help="read queries from stdin, one per line")
    qp.set_defaults(func=_cmd_query)

    st = sub.add_parser("stats", help="print index statistics")
    st.add_argument("--index", required=True)
    st.set_defaults(func=_cmd_stats)

    se = sub.add_parser("selftest", help="randomized oracle-equivalence suites")
    se.add_argument("--trials", type=int, default=1000)
    se.add_argument("--max-len", type=int, default=128)
    se.add_argument("--alphabet", default="1,2,4,26",
                    help="comma-separated alphabet sizes to cycle through")
    se.add_argument("--seed", type=int, default=0)
    se.set_defaults(func=_cmd_selftest)
    return ap


class _Stdout:
    """Stdout while a command runs: a failed write ends the command with one
    ``error:`` line on stderr and exit code 2."""

    def __init__(self, out):
        self.out = out

    def write(self, s: str) -> None:
        self._do(self.out.write, s)

    def flush(self) -> None:
        self._do(self.out.flush)

    def _do(self, call, *args) -> None:
        try:
            call(*args)
        except OSError as exc:
            if self.out is sys.__stdout__:  # the interpreter flushes it again at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), self.out.fileno())
            raise SystemExit(_fail(f"cannot write output: {exc}"))


def main(argv: list[str] | None = None) -> int:
    ap = _parser()
    args, extra = ap.parse_known_args(argv)
    if args.cmd == "query":  # the query words are what argparse leaves, in order
        args.query = [w for w in extra if w != "--"]
    elif extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    with redirect_stdout(_Stdout(sys.stdout)):
        try:
            code = args.func(args)
        except IndexFormatError as exc:  # an index that query or stats loads
            raise SystemExit(_fail(exc))
        sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
