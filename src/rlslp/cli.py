"""Command-line front end: build indexes, answer queries, print stats, self-test.

Index files are line-based ASCII with LF newlines: a header line followed
by one line per symbol in id order, so a build is byte-reproducible for a
fixed (text, seed).  Text is read as raw bytes mapped to codepoints 0-255
unless --utf8 is given.

Exit codes: 0 success, 2 malformed arguments or unreadable/invalid input,
3 for out-of-range positions or an IPM ratio violation, 4 when a query
fails an internal consistency check (a bug; the message names the check).
"""

from __future__ import annotations

import argparse
import random
import sys

from .builder import build
from .errors import IndexFormatError, InternalInvariantError, RlslpError
from .extension import lce, rev_lce
from .grammar import PAIR, POWER, TERMINAL, Grammar, SymbolTable
from .ipm import ipm_query, proxy_pattern, rle_match
from .oracle import naive_lce, naive_occ, naive_pseq_levels, naive_rev_lce, naive_rle_match
from .popped import Run, pseq

MAGIC = "RLSLP1"
FORMAT_VERSION = 1


def save_index(g: Grammar, path: str) -> None:
    t = g.table
    lines = [
        f"{MAGIC} version={FORMAT_VERSION} seed={g.seed} rounds={g.rounds} "
        f"text_len={g.text_len} symbols={len(t)} start={g.start}"
    ]
    for sid in range(len(t)):
        k = t.kind[sid]
        if k == TERMINAL:
            lines.append(f"{sid} T {t.arg0[sid]}")
        elif k == PAIR:
            lines.append(f"{sid} P {t.arg0[sid]} {t.arg1[sid]} {t.level[sid]}")
        else:
            lines.append(f"{sid} R {t.arg0[sid]} {t.arg1[sid]} {t.level[sid]}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_index(path: str) -> Grammar:
    """Parse an index file, re-interning every symbol; explen is recomputed."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IndexFormatError(f"cannot read index: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not ASCII: {exc}") from None
    if not lines:
        raise IndexFormatError("empty index file")
    header = lines[0].split()
    if len(header) != 7 or header[0] != MAGIC:
        raise IndexFormatError("bad header")
    fields = {}
    for item in header[1:]:
        key, _, val = item.partition("=")
        try:
            fields[key] = int(val)
        except ValueError:
            raise IndexFormatError(f"bad header field {item!r}") from None
    expected = {"version", "seed", "rounds", "text_len", "symbols", "start"}
    if set(fields) != expected:
        raise IndexFormatError("bad header fields")
    if fields["version"] != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported version {fields['version']}")
    if len(lines) - 1 != fields["symbols"]:
        raise IndexFormatError("symbol count does not match header")

    table = SymbolTable()
    try:
        for lineno, line in enumerate(lines[1:]):
            parts = line.split()
            sid = int(parts[0])
            if sid != lineno:
                raise IndexFormatError(f"ids must be contiguous, got {sid} on line {lineno + 1}")
            tag = parts[1]
            if tag == "T" and len(parts) == 3:
                got = table.intern_terminal(int(parts[2]))
            elif tag == "P" and len(parts) == 5:
                b, c, level = int(parts[2]), int(parts[3]), int(parts[4])
                if b >= sid or c >= sid:
                    raise IndexFormatError(f"forward reference on line {lineno + 1}")
                got = table.intern_pair(b, c, level)
            elif tag == "R" and len(parts) == 5:
                b, m, level = int(parts[2]), int(parts[3]), int(parts[4])
                if b >= sid:
                    raise IndexFormatError(f"forward reference on line {lineno + 1}")
                got = table.intern_power(b, m, level)
            else:
                raise IndexFormatError(f"bad record on line {lineno + 1}")
            if got != sid:
                raise IndexFormatError(f"duplicate symbol on line {lineno + 1}")
    except (ValueError, IndexError):
        raise IndexFormatError(f"bad record on line {lineno + 1}") from None
    except RlslpError as exc:
        if isinstance(exc, IndexFormatError):
            raise
        raise IndexFormatError(f"invalid symbol on line {lineno + 1}: {exc}") from None

    start = fields["start"]
    if not (0 <= start < len(table)):
        raise IndexFormatError("start symbol out of range")
    g = Grammar(table=table, start=start, rounds=fields["rounds"],
                seed=fields["seed"], text_len=fields["text_len"])
    if table.explen[start] != g.text_len:
        raise IndexFormatError("text_len does not match the start symbol expansion")
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
    save_index(g, args.output)
    print(f"built index: {len(g.table)} symbols, {g.rounds} rounds, "
          f"text_len {g.text_len}, seed {g.seed}")
    return 0


def _load_for(args) -> Grammar:
    try:
        return load_index(args.index)
    except IndexFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_query(args) -> int:
    g = _load_for(args)
    try:
        if args.op == "lce":
            print(lce(g, args.i, args.i2))
        elif args.op == "revlce":
            print(rev_lce(g, args.i, args.i2))
        else:
            occ = ipm_query(g, args.x, args.x2, args.y, args.y2)
            print(f"{occ.start} {occ.diff} {occ.count}")
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except RlslpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


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
    rebuilt = "".join(g.expand(r.sym) * r.exponent for r in ps.runs())
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
            runs.append(Run(sym, rng.randint(1, 4)))
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
    sigmas = [int(s) for s in args.alphabet.split(",") if s]
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

    qp = sub.add_parser("query", help="answer one query against an index")
    qp.add_argument("--index", required=True)
    ops = qp.add_subparsers(dest="op", required=True)
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
