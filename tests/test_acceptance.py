"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import random
import statistics
import time

from rlslp import lce, rev_lce
from rlslp.builder import build, level_string, round_cap
from rlslp.cli import load_index, save_index
from rlslp.ipm import ipm_query, rle_match
from rlslp.navigator import Navigator
from rlslp.oracle import (naive_lce, naive_occ, naive_pseq_levels, naive_rev_lce,
                          naive_rle_match)
from rlslp.popped import Run, pseq

ALPHABETS = (1, 2, 4, 26)


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _texts(rng, count, max_len):
    for i in range(count):
        sigma = ALPHABETS[i % len(ALPHABETS)]
        n = rng.randint(1, max_len)
        yield "".join(chr(ord("a") + rng.randrange(sigma)) for _ in range(n))


def test_criterion_1_ipm_oracle_equivalence():
    t0 = time.time()
    pairs = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        for text in _texts(rng, 13, 256):
            g = build(text, seed)
            n = len(text)
            for _ in range(40):
                xl = rng.randint(1, n)
                x = rng.randint(0, n - xl)
                yl = rng.randint(1, min(2 * xl - 1, n))
                y = rng.randint(0, n - yl)
                occ = ipm_query(g, x, x + xl, y, y + yl)
                want = naive_occ(text, x, x + xl, y, y + yl)
                assert list(occ.positions()) == want, \
                    (text, seed, (x, x + xl), (y, y + yl))
                pairs += 1
    assert pairs >= 10_000
    _report(1, "IPM oracle equivalence", True,
            f"{pairs} pairs, {time.time() - t0:.1f}s")


def test_criterion_2_lce_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2)
    queries = 0
    for idx, text in enumerate(_texts(rng, 200, 128)):
        g = build(text, idx)
        n = len(text)
        for i in range(n + 1):
            for i2 in range(i, n + 1):
                want = naive_lce(text, i, i2)
                assert lce(g, i, i2) == want
                assert lce(g, i2, i) == want
                wantr = naive_rev_lce(text, i, i2)
                assert rev_lce(g, i, i2) == wantr
                assert rev_lce(g, i2, i) == wantr
                queries += 4
    _report(2, "LCE/rev-LCE oracle equivalence", True,
            f"200 texts, {queries} queries, {time.time() - t0:.1f}s")


def test_criterion_3_popped_sequence_identities():
    t0 = time.time()
    rng = random.Random(3)
    frags = 0
    for idx, text in enumerate(_texts(rng, 50, 64)):
        g = build(text, idx)
        n = len(text)
        for x in range(n):
            for x2 in range(x + 1, n + 1):
                ps = pseq(g, x, x2)
                rebuilt = "".join(g.expand(r.sym) * r.exponent for r in ps.runs())
                assert rebuilt == text[x:x2]
                # each level contributes at most one run per side by type;
                # check the levels agree with the definitional oracle
                ora = naive_pseq_levels(g, x, x2)
                assert ps.q == ora.q
                for k in range(ps.q + 1):
                    lf = [ps.left[k].sym] * ps.left[k].exponent if ps.left[k] else []
                    rt = [ps.right[k].sym] * ps.right[k].exponent if ps.right[k] else []
                    assert lf == ora.left[k] and rt == ora.right[k]
                frags += 1
    _report(3, "popped-sequence identities", True,
            f"{frags} fragments, {time.time() - t0:.1f}s")


def test_criterion_4_rle_matching_bounds():
    t0 = time.time()
    rng = random.Random(4)

    def rand_runs(max_runs, nsyms, max_exp):
        runs = []
        last = None
        for _ in range(rng.randint(1, max_runs)):
            s = rng.randrange(nsyms)
            if s == last:
                continue
            runs.append(Run(s, rng.randint(1, max_exp)))
            last = s
        return runs

    for case in range(10_000):
        pruns = rand_runs(5, 3, 6)
        sruns = rand_runs(16, 3, 6)
        progs = rle_match(pruns, sruns)
        want = naive_rle_match(pruns, sruns)
        got = sorted(p for prog in progs for p in prog.positions())
        assert got == want, (pruns, sruns, got, want)
        plen = sum(e for _, e in pruns)
        slen = sum(e for _, e in sruns)
        if progs:
            assert len(progs) <= min(len(sruns), slen // plen), (pruns, sruns, progs)
        assert all(p.diff <= plen for p in progs)
    _report(4, "RLE-matching occurrence sets and bounds", True,
            f"10000 pairs, {time.time() - t0:.1f}s")


def test_criterion_5_complexity_instrumentation():
    t0 = time.time()
    # hard per-query caps over a randomized corpus
    rng = random.Random(5)
    worst_ipm = worst_lce = 0.0
    for idx, text in enumerate(_texts(rng, 60, 256)):
        g = build(text, idx)
        nav = Navigator(g)
        n = len(text)
        denom = g.rounds + 1
        for _ in range(30):
            i, i2 = rng.randint(0, n), rng.randint(0, n)
            before = nav.steps
            lce(g, i, i2, nav)
            worst_lce = max(worst_lce, (nav.steps - before) / denom)
            assert nav.steps - before <= 64 * denom, (text, idx, i, i2)
            xl = rng.randint(1, n)
            x = rng.randint(0, n - xl)
            yl = rng.randint(xl, min(2 * xl - 1, n))
            y = rng.randint(0, n - yl)
            before = nav.steps
            ipm_query(g, x, x + xl, y, y + yl, nav)
            worst_ipm = max(worst_ipm, (nav.steps - before) / denom)
            assert nav.steps - before <= 512 * denom, (text, idx, (x, x + xl), (y, y + yl))

    # doubling text lengths: median steps per query stay linear in r
    medians = []
    for exp in range(10, 17):
        n = 1 << exp
        rng2 = random.Random(exp)
        text = "".join("ab"[rng2.randrange(2)] for _ in range(n))
        g = build(text, exp)
        nav = Navigator(g)
        samples = []
        for _ in range(120):
            xl = rng2.randint(1, n)
            x = rng2.randint(0, n - xl)
            yl = rng2.randint(xl, min(2 * xl - 1, n))
            y = rng2.randint(0, n - yl)
            before = nav.steps
            ipm_query(g, x, x + xl, y, y + yl, nav)
            samples.append(nav.steps - before)
        med = statistics.median(samples)
        medians.append((n, g.rounds, med))
        assert med <= 512 * (g.rounds + 1), (n, g.rounds, med)
    detail = ", ".join(f"n=2^{exp} r={r} med={med:.0f}"
                       for exp, (n, r, med) in zip(range(10, 17), medians))
    _report(5, "step caps and linear median growth", True,
            f"worst lce {worst_lce:.1f}(r+1), worst ipm {worst_ipm:.1f}(r+1); "
            f"{detail}; {time.time() - t0:.1f}s")


def test_criterion_6_round_bound():
    t0 = time.time()
    n = 1 << 16
    bound = 8 * 16 + 32  # 8*log2(n) + 32
    worst = 0
    for seed in range(20):
        rng = random.Random(600 + seed)
        text = "".join("ab"[rng.randrange(2)] for _ in range(n))
        g = build(text, seed)
        retries = g.seed - seed
        assert g.rounds <= bound, (seed, g.rounds, bound)
        assert retries <= 2, (seed, retries)
        worst = max(worst, g.rounds)
    _report(6, "round bound at n=2^16", True,
            f"worst r={worst} <= {bound}, {time.time() - t0:.1f}s")


def test_criterion_7_serialization_roundtrip(tmp_path):
    t0 = time.time()
    rng = random.Random(7)
    replayed = 0
    for idx, text in enumerate(_texts(rng, 100, 256)):
        g = build(text, idx)
        p1 = tmp_path / f"i{idx}.idx"
        p2 = tmp_path / f"i{idx}b.idx"
        save_index(g, str(p1))
        g2 = load_index(str(p1))
        save_index(g2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        n = g.text_len
        for _ in range(10):
            i, i2 = rng.randint(0, n), rng.randint(0, n)
            assert lce(g, i, i2) == lce(g2, i, i2)
            assert rev_lce(g, i, i2) == rev_lce(g2, i, i2)
            xl = rng.randint(1, n)
            x = rng.randint(0, n - xl)
            yl = rng.randint(1, min(2 * xl - 1, n))
            y = rng.randint(0, n - yl)
            assert ipm_query(g, x, x + xl, y, y + yl) == \
                ipm_query(g2, x, x + xl, y, y + yl)
            replayed += 3
    assert replayed >= 1000
    _report(7, "serialization roundtrip", True,
            f"100 indexes, {replayed} replayed queries, {time.time() - t0:.1f}s")


def test_criterion_8_local_consistency():
    t0 = time.time()
    rng = random.Random(8)
    for idx, text in enumerate(_texts(rng, 100, 256)):
        g = build(text, idx)
        cache = {}

        def expansion(s):
            if s not in cache:
                cache[s] = g.expand(s)
            return cache[s]

        for k in range(g.rounds + 1):
            seen = {}
            for s in set(level_string(g, k).symbols):
                e = expansion(s)
                assert seen.setdefault(e, s) == s, (text, idx, k, e)
    _report(8, "local consistency of level strings", True,
            f"100 texts, {time.time() - t0:.1f}s")
