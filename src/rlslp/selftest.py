"""``rlslp selftest``: randomized oracle-equivalence suites.  The command line
imports this module only for ``selftest``, so a query never loads the oracle."""

from __future__ import annotations

import random

from .builder import build
from .extension import lce, rev_lce
from .ipm import ipm_query, proxy_pattern, rle_match
from .oracle import (_ORACLE_CAP, naive_lce, naive_occ, naive_pseq_levels, naive_rev_lce,
                     naive_rle_match)
from .popped import pseq


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


def run(args) -> int | str:
    """Run ``args.trials`` trials: the exit code (0 all passed, 1 a trial
    failed, reported on stdout), or the message of a bad option, which the
    command line prints as an ``error:`` line with exit code 2."""
    try:
        sigmas = [int(s) for s in args.alphabet.split(",") if s]
    except ValueError:
        sigmas = []
    top = 0x110000 - ord("a")  # texts are drawn from chr(ord("a") + i), i < size
    if not sigmas or not all(1 <= s <= top for s in sigmas):
        return f"--alphabet {args.alphabet!r} needs sizes in [1, {top}]"
    if args.trials < 0:
        return f"--trials {args.trials} is negative"
    if not 1 <= args.max_len <= _ORACLE_CAP:
        return f"--max-len {args.max_len} outside [1, {_ORACLE_CAP}]"
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
