"""The package contract that the benchmark in ``perfbench/`` relies on.

The traced benchmark run rebuilds each IPM answer from the public layer
calls (``pseq``, ``proxy_pattern``, ``proxy_text``, ``rle_match``,
``lift_progression``, ``verify_progression``) and, during verification
only, swaps ``rlslp.ipm.lce``/``rev_lce`` for wrappers that record a span
per call.  These tests run that code on a small corpus.
"""

import importlib
import random
import sys
from pathlib import Path

from rlslp import Navigator, build, ipm_query, lce, rev_lce
from rlslp import ipm as ipm_mod

from helpers import random_ipm_pair, random_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from spans import TracedIpm, Tracer  # noqa: E402


def _texts(rng):
    yield random_text(rng, 300, 2, min_len=200)
    yield random_text(rng, 300, 4, min_len=200)
    yield ("abaab" * 80)[:397]
    yield "a" * 150 + "b" + "a" * 150


def test_traced_ipm_matches_ipm_query(monkeypatch):
    # count every LCE the package computes, whichever way it is reached
    lce_mod = importlib.import_module("rlslp.lce")  # `rlslp.lce` is the function
    extension = lce_mod._extension
    computed = [0]

    def counted(*args):
        computed[0] += 1
        return extension(*args)

    monkeypatch.setattr(lce_mod, "_extension", counted)
    rng = random.Random(71)
    tracer = Tracer()
    traced = TracedIpm(tracer)
    queries = traced_lces = 0
    for seed, text in enumerate(_texts(rng)):
        g = build(text, seed)
        n = g.text_len
        for q in range(60):
            x, x2, y, y2 = random_ipm_pair(rng, n)
            if q % 2:
                # place Y over X itself, so that verification runs
                xl, yl = x2 - x, y2 - y
                y = max(0, min(x - rng.randint(0, yl - xl), n - yl))
                y2 = y + yl
            nav, traced_nav = Navigator(g), Navigator(g)
            want = list(ipm_query(g, x, x2, y, y2, nav).positions())
            before = computed[0]
            assert traced(g, x, x2, y, y2, traced_nav) == want, (text, seed, x, x2, y, y2)
            traced_lces += computed[0] - before
            assert traced_nav.steps == nav.steps
            queries += 1
    assert tracer.calls("ipm_query") == queries
    # every LCE of the traced queries is a span under verification, and
    # both directions occur
    assert tracer.calls("lce") == tracer.calls("lce", "verify_progression") > 0
    assert tracer.calls("rev_lce") == tracer.calls("rev_lce", "verify_progression") > 0
    assert tracer.calls("lce") + tracer.calls("rev_lce") == traced_lces
    # the wrappers are removed again after each query
    assert ipm_mod.lce is lce and ipm_mod.rev_lce is rev_lce
