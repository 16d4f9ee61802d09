"""Command-line front end: build indexes, answer queries, print stats, self-test.

Text is read as raw bytes mapped to codepoints 0-255 unless --utf8 is given.
The builder loads on first use, in ``build``, and the oracle in
``selftest``, so ``query`` and ``stats`` import neither.

Exit codes: 0 success, 1 a selftest trial that disagrees with the oracle
(``selftest FAILED at trial ..`` on stdout), 2 malformed arguments (a bad
selftest option included), unreadable/invalid input (an index whose header
or levels disagree with its symbols, a version other than 2 or a payload
of the wrong size included), an index that cannot be written or a stdout
that cannot be written (one ``error: cannot write output`` line on stderr,
any command), 3 for out-of-range positions or an IPM ratio violation, 4
when a query or a build fails an internal consistency check (a bug; one
``internal error: ...`` line on stderr names the check).

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
import sys
from contextlib import redirect_stdout

from .errors import IndexFormatError, InternalInvariantError, RlslpError
from .extension import lce, rev_lce
from .index import FORMAT_VERSION, load_index, save_index
from .ipm import ipm_query
from .navigator import Navigator


def _fail(message: object) -> int:
    """Print ``message`` as one ``error:`` line on stderr; the exit code is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_text(args) -> str:
    if args.text is not None:
        raw = os.fsencode(args.text)  # the bytes of the argument, as --input reads a file
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
    from .builder import build  # the builder loads only for a build
    text = _read_text(args)
    if not text:
        return _fail("input text is empty")
    try:
        g = build(text, args.seed)
        save_index(g, args.output)
    except InternalInvariantError as exc:  # a faulty build
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        return _fail(f"cannot write index: {exc}")
    print(f"built index: {len(g.table)} symbols, {g.rounds} rounds, "
          f"text_len {g.text_len}, seed {g.seed}")
    return 0


_ARITY = {"lce": 2, "revlce": 2, "ipm": 4}


def _answer(g, line: str) -> tuple[str, int]:
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
    lv = g.table.level  # a symbol's kind is its level's parity
    terminals, powers = lv.count(0), sum(v & 1 for v in lv)
    print(f"rounds: {g.rounds}")
    print(f"symbols: {len(lv)}")
    print(f"text_len: {g.text_len}")
    print(f"terminals: {terminals}")
    print(f"pairs: {len(lv) - terminals - powers}")
    print(f"powers: {powers}")
    print(f"seed: {g.seed}")
    print(f"format_version: {FORMAT_VERSION}")  # the one version load_index reads
    print(f"index_bytes_per_char: {os.path.getsize(args.index) / g.text_len:.3f}")
    bound, _, tops = Navigator(g).frontier
    print(f"descent_frontier: {len(tops)} nodes, {bound} chars")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run  # the oracle loads only for the self-test
    code = run(args)
    return _fail(code) if isinstance(code, str) else code


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
