"""Command-line front end: build indexes, answer queries, print stats, self-test.

An index file (format version 2) is an ASCII header line,
``RLSLP1 version=2 seed=.. rounds=.. text_len=.. symbols=.. start=..``
and LF, then three binary columns of ``symbols`` entries each, in id
order: ``arg0`` and ``arg1`` as little-endian int32 (int64 when
``text_len + 0x110000 >= 2^31``), then ``level`` as little-endian uint16.
A symbol's kind follows from its level: 0 is a terminal, odd a power, even
above 0 a pair.  A build is byte-reproducible for a fixed (text, seed).
Version-1 files (one ASCII line per symbol) still load; they are no longer
written.  Text is read as raw bytes mapped to codepoints 0-255 unless
--utf8 is given.

Exit codes: 0 success, 2 malformed arguments (a bad selftest option
included), unreadable/invalid input (an index whose header or levels
disagree with its symbols, or a version-2 payload of the wrong size,
included) or an index that cannot be written,
3 for out-of-range positions or an IPM ratio violation, 4 when a query
fails an internal consistency check (a bug; the message names the check).

``query --batch`` loads the index once and answers one query per stdin
line (``lce i i2``, ``revlce i i2``, ``ipm x x2 y y2``) with one stdout
line in the one-shot format.  A bad line gets an ``error: ...`` line (2
for a malformed line, 3 for a query error) or an ``internal error: ...``
line (4) and does not stop the stream; the exit code is the worst seen.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from array import array

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


def _read_v1(body: bytes, count: int) -> SymbolTable:
    """The table of a version-1 body: one ASCII line per symbol in id order,
    ``sid T cp``, ``sid P b c level`` or ``sid R b m level``."""
    try:
        lines = body.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not ASCII: {exc}") from None
    if len(lines) != count:
        raise IndexFormatError("symbol count does not match header")
    table = SymbolTable()
    seen: dict = {}  # codepoint or (tag, b, c) -> first id; the level is not part of the key
    try:
        for lineno, line in enumerate(lines):
            parts = line.split()
            sid = int(parts[0])
            if sid != lineno:
                raise IndexFormatError(f"ids must be contiguous, got {sid} on line {lineno + 1}")
            tag = parts[1]
            if tag == "T" and len(parts) == 3:
                key = int(parts[2])
            elif tag == "P" and len(parts) == 5:
                b, c, level = int(parts[2]), int(parts[3]), int(parts[4])
                if level % 2:
                    raise IndexFormatError(f"pair on odd level {level} on line {lineno + 1}")
                key = (tag, b, c)
            elif tag == "R" and len(parts) == 5:
                b, m, level = int(parts[2]), int(parts[3]), int(parts[4])
                if level % 2 == 0:
                    raise IndexFormatError(f"power on even level {level} on line {lineno + 1}")
                key = (tag, b, m)
            else:
                raise IndexFormatError(f"bad record on line {lineno + 1}")
            if seen.setdefault(key, sid) != sid:
                raise IndexFormatError(f"duplicate symbol on line {lineno + 1}")
            if tag == "T":
                table.add_terminal(key)
            elif tag == "P":
                table.add_pair(b, c, level)
            else:
                table.add_power(b, m, level)
    except (ValueError, IndexError):
        raise IndexFormatError(f"bad record on line {lineno + 1}") from None
    except IndexFormatError:
        raise
    except RlslpError as exc:
        raise IndexFormatError(f"invalid symbol on line {lineno + 1}: {exc}") from None
    return table


def _read_v2(payload: bytes, count: int, text_len: int) -> SymbolTable:
    """The table of a version-2 payload: ``count`` entries of ``arg0``, then of
    ``arg1`` (little-endian int32, int64 when ``_arg_code`` says so), then of
    ``level`` (little-endian uint16).  The kind follows from the level: 0 is
    a terminal (``arg1`` 0), odd a power, even above 0 a pair."""
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
    table = SymbolTable()
    add_terminal, add_pair, add_power = table.add_terminal, table.add_pair, table.add_power
    # One int key per production, the level left out; the kinds' ranges are
    # disjoint once add_* has checked the record: codepoints below 0x110000,
    # pairs from there up, powers (exponent >= 2) below 0.
    seen: dict[int, int] = {}
    try:
        for sid, (b, c, lv) in enumerate(zip(arg0.tolist(), arg1.tolist(), level.tolist())):
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
    """Parse an index file of either version; explen is recomputed.

    Each record is checked and appended (``SymbolTable.add_*``); one local
    dict, dropped on return, rejects a production repeated under a new id.
    The returned table keeps no intern dicts: queries read only the
    per-symbol arrays.
    """
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
    if fields["version"] == 1:
        table = _read_v1(body, fields["symbols"])
    else:
        table = _read_v2(body, fields["symbols"], fields["text_len"])

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


def _read_text(args) -> str:
    if args.text is not None:
        raw = args.text.encode("utf-8")
    else:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: cannot read input: {exc}", file=sys.stderr)
            raise SystemExit(2)
    if args.utf8:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return raw.decode("latin-1")  # raw bytes as codepoints 0-255


def _cmd_build(args) -> int:
    text = _read_text(args)
    if not text:
        print("error: input text is empty", file=sys.stderr)
        return 2
    g = build(text, args.seed)
    try:
        save_index(g, args.output)
    except OSError as exc:
        print(f"error: cannot write index: {exc}", file=sys.stderr)
        return 2
    print(f"built index: {len(g.table)} symbols, {g.rounds} rounds, "
          f"text_len {g.text_len}, seed {g.seed}")
    return 0


def _load_for(args) -> Grammar:
    try:
        return load_index(args.index)
    except IndexFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


_ARITY = {"lce": 2, "revlce": 2, "ipm": 4}


def _answer(g: Grammar, op: str, nums) -> tuple[str, int]:
    """The output line of one query and its exit code."""
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


def _batch(g: Grammar, lines) -> int:
    """Answer one query per input line on stdout; return the worst exit code."""
    worst = 0
    for raw in lines:
        op, *args = raw.split() or [""]
        try:
            nums = [int(a) for a in args]
        except ValueError:
            nums = None
        if nums is None or len(nums) != _ARITY.get(op):
            out, code = f"error: bad query line {raw.strip()!r}", 2
        else:
            out, code = _answer(g, op, nums)
        print(out, flush=True)
        worst = max(worst, code)
    return worst


def _cmd_query(args) -> int:
    if args.batch == (args.op is not None):
        print("error: query takes one of lce, revlce, ipm or --batch", file=sys.stderr)
        return 2
    g = _load_for(args)
    if args.batch:
        return _batch(g, sys.stdin)
    nums = (args.x, args.x2, args.y, args.y2) if args.op == "ipm" else (args.i, args.i2)
    out, code = _answer(g, args.op, nums)
    print(out, file=sys.stderr if code else sys.stdout)
    return code


def _cmd_stats(args) -> int:
    g = _load_for(args)
    t = g.table
    kinds = [0, 0, 0]
    for k in t.kind:
        kinds[k] += 1
    print(f"rounds: {g.rounds}")
    print(f"symbols: {len(t)}")
    print(f"text_len: {g.text_len}")
    print(f"terminals: {kinds[TERMINAL]}")
    print(f"pairs: {kinds[PAIR]}")
    print(f"powers: {kinds[POWER]}")
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
        print(f"error: --alphabet {args.alphabet!r} needs sizes in [1, {top}]", file=sys.stderr)
        return 2
    if args.trials < 0:
        print(f"error: --trials {args.trials} is negative", file=sys.stderr)
        return 2
    if not 1 <= args.max_len <= _ORACLE_CAP:
        print(f"error: --max-len {args.max_len} outside [1, {_ORACLE_CAP}]", file=sys.stderr)
        return 2
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

    qp = sub.add_parser("query", help="answer one query, or one per stdin line, against an index")
    qp.add_argument("--index", required=True)
    qp.add_argument("--batch", action="store_true",
                    help="read queries from stdin, one per line: lce i i2 | revlce i i2 | "
                         "ipm x x2 y y2")
    ops = qp.add_subparsers(dest="op")
    op_lce = ops.add_parser("lce", help="longest common extension of two suffixes")
    op_lce.add_argument("i", type=int)
    op_lce.add_argument("i2", type=int)
    op_rev = ops.add_parser("revlce", help="longest common suffix of two prefixes")
    op_rev.add_argument("i", type=int)
    op_rev.add_argument("i2", type=int)
    op_ipm = ops.add_parser("ipm", help="occurrences of T[x,x2) inside T[y,y2)")
    for name in ("x", "x2", "y", "y2"):
        op_ipm.add_argument(name, type=int)
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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
