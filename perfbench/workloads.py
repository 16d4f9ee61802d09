"""The three benchmark workloads, driven through the package's public API.

Load is a closed loop: one client in one process sends the next query when
the previous one has returned.  Each query is timed on its own; answers are
checked against the brute-force reference after each batch, outside the
timed region, and a wrong answer or an exception counts as a failed
operation.

- ``ipm-random``: IPM queries on a random text over 4 letters, n = 2^17.
  Most time goes to pseq and proxy_text; LCE runs only inside verification.
- ``periodic-mixed``: LCE and rev-LCE on a text of tandem runs, half of
  them at offsets that are multiples of the local period, with a small
  share of IPM queries inside runs.  The LCE engine does about half of the
  work; the IPM share reaches long-run RLE matching and periodic
  verification, which random text almost never does.
- ``build-load``: build -> save_index -> load_index over three texts at
  n = 2^16, each loaded index checked by a batch of queries, plus one-shot
  ``rlslp query`` subprocesses against a saved index.

Every end-to-end metric is reported on every workload.  Where a metric is
not the workload's main loop it comes from a probe run between batches of
the loop: LCE queries on ipm-random, repeated set-ups (build, save, load)
and one-shot CLI queries on the query workloads, and the queries that check
each index loaded in build-load.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

from rlslp import build, ipm_query, lce, level_string, rev_lce
from rlslp.cli import load_index, save_index
from rlslp.grammar import PAIR, POWER
from rlslp.navigator import Navigator

import corpus
from spans import TracedIpm, Tracer

N_QUERY = 1 << 17          # text length of the query workloads
N_BUILD = 1 << 16          # text length of each build-load corpus
BATCH = 64                 # queries timed between two answer checks
FINGERPRINT_QUERIES = 400  # first queries of a stream, untimed, with step counts
# Probes run between batches of the main loop, spread over the whole run, so
# that slow spells of a shared machine weigh on them as on the loop itself.
LCE_PROBE = 16             # LCE/rev-LCE queries after each ipm-random batch
CLI_PROBES = 16            # one-shot CLI queries per query-workload run
SETUP_PROBES = 6           # set-ups after the first one; setup_s is the median
LOADS = 3                  # index loads per query-workload set-up
PERIODIC_IPM_SHARE = 0.03  # puts about half of periodic-mixed's time in lce
CHECK_QUERIES = 480        # queries that check each index loaded in build-load
CHECK_IPM_SHARE = 1 / 6
IPM_CAP, LCE_CAP = 512, 64  # step caps per (r + 1) of acceptance criterion 5

# A shared machine switches between fast and slow spells (up to 2x apart)
# many times a second, and the share of slow time drifts from run to run,
# moving every timing of a run together.  A fixed pure-Python kernel, timed
# every CAL_PERIOD seconds through the run, samples that share: run.py
# divides each time by the run's mean kernel time over CAL_NOMINAL_NS, a
# typical kernel time on the 2-core machine the benchmark was tuned on.
# The kernel mixes what the queries do, and nothing of the package: pointer
# chasing over a large list, tuple unpacking, dict lookups, and a chain of
# small slotted objects.  It runs with the garbage collector off, so that no
# collection of the package's objects, whose cost grows with its heap, is
# timed as machine speed.
CAL_STEPS = 1000
CAL_NOMINAL_NS = 2_000_000
CAL_PERIOD = 0.05
_CAL_PERM = list(range(1 << 17))
random.Random(7).shuffle(_CAL_PERM)
_CAL_NODES = [(i, (i * 7919) & 0xFFFF) for i in range(1 << 17)]
_CAL_TABLE = {k: k >> 1 for k in range(0, 1 << 16, 3)}

OPS = {"ipm": ipm_query, "lce": lce, "rev": rev_lce}
SPAN_OF = {"lce": "lce", "rev": "rev_lce"}
LAYER_SPANS = ("pseq", "proxy_pattern", "proxy_text", "rle_match",
               "lift_progression", "verify_progression", "lce", "rev_lce")


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


class _CalNode:
    __slots__ = ("pos", "sym", "parent")

    def __init__(self, pos: int, sym: int, parent: "_CalNode | None"):
        self.pos = pos
        self.sym = sym
        self.parent = parent


def cal_kernel() -> int:
    perm, nodes, table = _CAL_PERM, _CAL_NODES, _CAL_TABLE
    j = 0
    node = None
    for i in range(CAL_STEPS):
        j = perm[j]
        pos, sym = nodes[j]
        node = _CalNode(pos + table.get(sym, 0), sym, node if i & 63 else None)
    return node.pos


def every(period: float, action):
    """A probe that runs ``action`` each time the loop's query time passes
    another ``period`` seconds, starting at once."""
    due = [0.0]

    def probe(busy: float) -> None:
        if busy >= due[0]:
            due[0] += period
            action()
    return probe


def _answer(op: str, ans):
    return (ans.start, ans.diff, ans.count) if op == "ipm" else ans


class Run:
    """Inputs, measurements and checks of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, src: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.src = src
        self.lat = {op: array("q") for op in OPS}  # ns per query
        self.traced_lat = array("q")                # ns per traced IPM query
        self.steps = {"ipm": [], "lce": []}         # steps / (r + 1) per query
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {k: [] for k in ("setup", "build", "save", "load", "cli")}
        self.sizes: dict[str, float] = {}
        self.fingerprint: dict = {}
        self.layers: dict[str, float] = {}
        self.ipm_counts = {"answers": 0, "count>=2": 0}
        self.tracer = Tracer()
        self.traced_ipm = TracedIpm(self.tracer)
        self.cal = array("q")  # ns per calibration kernel
        self._cal_due = 0.0

    def calibrate(self) -> None:
        """Time the calibration kernel if CAL_PERIOD has passed since the last."""
        if perf_counter() >= self._cal_due:
            enabled = gc.isenabled()
            gc.disable()
            t0 = perf_counter_ns()
            cal_kernel()
            self.cal.append(perf_counter_ns() - t0)
            if enabled:
                gc.enable()
            self._cal_due = perf_counter() + CAL_PERIOD

    def slowdown(self) -> float:
        """How much slower than nominal the machine ran, on average, in this run."""
        return statistics.fmean(self.cal) / CAL_NOMINAL_NS

    # -- checks -----------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def check(self, ref: corpus.Reference, op: str, args: tuple, got) -> None:
        self.attempted += 1
        if isinstance(got, Exception):
            self.fail(f"{op}{args}: {type(got).__name__}: {got}")
            return
        want = ref.answer(op, args)
        if got != want:
            self.fail(f"{op}{args}: got {got}, want {want}")
        elif op == "ipm":
            self.ipm_counts["answers"] += 1
            self.ipm_counts["count>=2"] += want[2] >= 2

    # -- timed queries --------------------------------------------------------

    def run_batch(self, g, batch: list, ref: corpus.Reference) -> float:
        """Time each query of ``batch`` on ``g``, check the answers untimed,
        and return the time the batch took."""
        if self.trace:
            return self._run_batch_traced(g, batch, ref)
        lat = self.lat
        out = []
        t_start = perf_counter()
        for op, args in batch:
            f = OPS[op]
            t0 = perf_counter_ns()
            try:
                ans = f(g, *args)
            except Exception as exc:  # counted as a failed operation
                ans = exc
            lat[op].append(perf_counter_ns() - t0)
            out.append(ans)
        busy = perf_counter() - t_start
        for (op, args), ans in zip(batch, out):
            self.check(ref, op, args, ans if isinstance(ans, Exception) else _answer(op, ans))
        return busy

    def _run_batch_traced(self, g, batch: list, ref: corpus.Reference) -> float:
        """Each IPM query runs untraced through ``ipm_query`` and traced through
        its layer calls, in alternating order, and the two answers must agree;
        each LCE query runs inside one span."""
        traced_ipm, tracer = self.traced_ipm, self.tracer
        denom = g.rounds + 1
        out = []
        t_start = perf_counter()
        for k, (op, args) in enumerate(batch):
            nav = Navigator(g)
            if op != "ipm":
                t0 = perf_counter_ns()
                try:
                    ans = tracer.call(SPAN_OF[op], OPS[op], g, *args, nav)
                except Exception as exc:
                    ans = exc
                self.lat[op].append(perf_counter_ns() - t0)
                self.steps["lce"].append(nav.steps / denom)
                out.append((ans, ans))
                continue
            got = [None, None]
            for which in ((0, 1) if k % 2 else (1, 0)):
                t0 = perf_counter_ns()
                try:
                    if which == 0:
                        got[0] = _answer(op, ipm_query(g, *args))
                    else:
                        got[1] = corpus.progression(traced_ipm(g, *args, nav))
                except Exception as exc:
                    got[which] = exc
                (self.lat["ipm"] if which == 0 else self.traced_lat).append(perf_counter_ns() - t0)
            self.steps["ipm"].append(nav.steps / denom)
            out.append(tuple(got))
        busy = perf_counter() - t_start
        for (op, args), (plain, traced) in zip(batch, out):
            if traced is not plain and traced != plain:
                self.attempted += 1
                self.fail(f"traced {op}{args}: layer calls gave {traced}, ipm_query {plain}")
            else:
                self.check(ref, op, args, plain)
        return busy

    def closed_loop(self, g, stream, ref: corpus.Reference, probes) -> tuple[float, int]:
        """Query batches for ``self.seconds`` of query time; after each batch
        every probe gets the query time so far.  Returns (queries/s, queries)."""
        busy = 0.0
        count = 0
        while busy < self.seconds:
            busy += self.run_batch(g, [next(stream) for _ in range(BATCH)], ref)
            count += BATCH
            self.calibrate()
            for probe in probes:
                probe(busy)
                self.calibrate()
        return count / busy, count

    def fingerprint_pass(self, g, stream, ref: corpus.Reference, count: int, key: str) -> None:
        """The first ``count`` queries of ``stream``, untimed, with a step
        counter: the digest of their answers and the exact step total show
        that a later change kept the outputs.  Also warms the loop up."""
        nav = Navigator(g)
        h = hashlib.sha256()
        for _ in range(count):
            op, args = next(stream)
            try:
                ans = _answer(op, OPS[op](g, *args, nav))
            except Exception as exc:
                ans = exc
            self.check(ref, op, args, ans)
            h.update(f"{op} {args} {ans}\n".encode())
        self.fingerprint[key] = {"queries": count, "answers_sha256": h.hexdigest(),
                                 "steps": nav.steps}

    # -- build, load, memory and CLI ----------------------------------------

    def _timed(self, span: str, fn, *args) -> tuple:
        t0 = perf_counter()
        out = self.tracer.call(span, fn, *args) if self.trace else fn(*args)
        return out, perf_counter() - t0

    def build_save_load(self, text: str, path: Path, loads: int = 1, record: bool = True):
        """Build, save and load (``loads`` times) one index, each step timed
        and, if ``record``, added to the build/save/load times."""
        g, tb = self._timed("build", build, text, self.seed)
        _, ts = self._timed("save_index", save_index, g, str(path))
        tls = []
        for _ in range(loads):
            gl, tl = self._timed("load_index", load_index, str(path))
            tls.append(tl)
        if record:
            self.times["build"].append(tb)
            self.times["save"].append(ts)
            self.times["load"].extend(tls)
        return g, gl

    @staticmethod
    def held_mb(path: Path) -> float:
        """Memory held by a grammar loaded from ``path``, measured untimed."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = load_index(str(path))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del g
        return held / 1e6

    def cli_query(self, index: Path, ref: corpus.Reference, args: tuple) -> float:
        """One ``rlslp query ... ipm`` subprocess, timed from start to exit;
        returns that time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "rlslp.cli", "query", "--index", str(index),
               "ipm", *map(str, args)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
        wall = perf_counter() - t0
        self.times["cli"].append(wall)
        if proc.returncode != 0:
            self.attempted += 1
            self.fail(f"cli ipm{args}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return wall
        try:
            got = tuple(int(v) for v in proc.stdout.split())
        except ValueError:
            got = proc.stdout
        self.check(ref, "ipm", args, got)
        return wall

    def grammar_layers(self, g, n: int) -> dict[str, float]:
        """Round, no-op round, seed and symbol counts of one grammar, untimed."""
        lens = [len(level_string(g, k).symbols) for k in range(g.rounds + 1)]
        kinds = g.table.kind
        return {
            "builder.rounds": g.rounds,
            "builder.noop_rounds": sum(a == b for a, b in zip(lens, lens[1:])),
            "builder.seeds_tried": g.seed - self.seed + 1,
            "grammar.symbols_per_char": len(kinds) / n,
            "grammar.pairs": sum(k == PAIR for k in kinds),
            "grammar.powers": sum(k == POWER for k in kinds),
        }

    # -- workloads ----------------------------------------------------------

    def _query_setup(self, make_text, index: Path):
        t0 = perf_counter()
        text, extra = make_text()
        _, g = self.build_save_load(text, index, LOADS)
        self.times["setup"].append(perf_counter() - t0)
        self.calibrate()
        return text, extra, g

    def _query_workload(self, make_text, make_stream, fp_count: int, cli_stream, extra_probes=()):
        """Set up, fingerprint, then the closed loop with the CLI and set-up
        probes spread over it."""
        index = self.workdir / "index.rlslp"
        text, extra, g = self._query_setup(make_text, index)
        data = index.read_bytes()
        self.fingerprint["index"] = {"index_sha256": hashlib.sha256(data).hexdigest(),
                                     "r": g.rounds, "symbols": len(g.table.kind)}
        self.sizes = {"chars": len(text), "index_bytes": len(data), "loaded_mb": self.held_mb(index)}
        if self.trace:
            self.layers.update(self.grammar_layers(g, len(text)))
        ref = corpus.Reference(text)
        stream = make_stream(extra)
        self.fingerprint_pass(g, stream, ref, fp_count, "queries")
        cli_stream = cli_stream(extra)
        probes = [
            every(self.seconds / CLI_PROBES,
                  lambda: self.cli_query(index, ref, next(cli_stream)[1])),
            every(self.seconds / SETUP_PROBES,
                  lambda: self._query_setup(make_text, self.workdir / "probe.rlslp")),
            *(p(g, ref) for p in extra_probes),
        ]
        return self.closed_loop(g, stream, ref, probes)

    def ipm_random(self) -> tuple[float, int]:
        w, s = self.workload, self.seed
        lce_stream = corpus.mixed_queries(corpus.rng_for(w, s, "lce-probe"), N_QUERY, 0.0)

        def lce_probe(g, ref):
            return lambda busy: self.run_batch(g, [next(lce_stream) for _ in range(LCE_PROBE)], ref)

        return self._query_workload(
            lambda: (corpus.random_text(corpus.rng_for(w, s, "text"), N_QUERY, 4), None),
            lambda _: corpus.ipm_random_queries(corpus.rng_for(w, s, "queries"), N_QUERY),
            FINGERPRINT_QUERIES,
            lambda _: corpus.ipm_random_queries(corpus.rng_for(w, s, "cli"), N_QUERY),
            [lce_probe])

    def periodic_mixed(self) -> tuple[float, int]:
        w, s = self.workload, self.seed
        return self._query_workload(
            lambda: corpus.tandem_text(corpus.rng_for(w, s, "text"), N_QUERY),
            lambda runs: corpus.periodic_queries(corpus.rng_for(w, s, "queries"), N_QUERY,
                                                 runs, PERIODIC_IPM_SHARE),
            10 * FINGERPRINT_QUERIES,
            lambda runs: corpus.periodic_queries(corpus.rng_for(w, s, "cli"), N_QUERY, runs, 1.0))

    def build_load(self) -> tuple[float, int]:
        w, s = self.workload, self.seed
        cli_index = self.workdir / "cli.rlslp"

        def setup():
            t0 = perf_counter()
            texts = {
                "random-2": corpus.random_text(corpus.rng_for(w, s, "random-2"), N_BUILD, 2),
                "random-26": corpus.random_text(corpus.rng_for(w, s, "random-26"), N_BUILD, 26),
                "tandem": corpus.tandem_text(corpus.rng_for(w, s, "tandem"), N_BUILD)[0],
            }
            _, g26 = self.build_save_load(texts["random-26"], cli_index, record=False)
            self.times["setup"].append(perf_counter() - t0)
            self.calibrate()
            return texts, g26

        texts, g26 = setup()
        names = list(texts)
        refs = {name: corpus.Reference(t) for name, t in texts.items()}
        checks = {name: corpus.mixed_queries(corpus.rng_for(w, s, "check-" + name), N_BUILD,
                                             CHECK_IPM_SHARE) for name in names}
        cli_stream = corpus.ipm_random_queries(corpus.rng_for(w, s, "cli"), N_BUILD)
        self.fingerprint_pass(g26, corpus.mixed_queries(corpus.rng_for(w, s, "fp"), N_BUILD,
                                                        CHECK_IPM_SHARE),
                              refs["random-26"], FINGERPRINT_QUERIES, "queries")
        setup_probe = every(self.seconds / SETUP_PROBES, setup)
        sizes: dict[str, int] = {}
        busy = query_s = 0.0
        queries = cycle = 0
        # whole rounds of the three texts, so each weighs the same in the means
        while busy < self.seconds or cycle % len(names):
            name = names[cycle % len(names)]
            path = self.workdir / f"{name}.rlslp"
            t0 = perf_counter()
            g, gl = self.build_save_load(texts[name], path)
            busy += perf_counter() - t0
            self.calibrate()
            # untimed: the index is deterministic and survives a load/save round trip
            data = path.read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            again = self.workdir / "roundtrip.rlslp"
            save_index(gl, str(again))
            self.attempted += 1
            first = self.fingerprint.setdefault(name, {"index_sha256": sha, "r": g.rounds,
                                                       "symbols": len(g.table.kind)})
            if first["index_sha256"] != sha or again.read_bytes() != data:
                self.fail(f"{name}: index bytes changed between builds or on reload")
            if cycle < len(names):
                sizes[name] = len(data)
                if self.trace:
                    for key, v in self.grammar_layers(g, N_BUILD).items():
                        self.layers[key] = self.layers.get(key, 0) + v / len(names)
            # timed: the loaded index answers a batch of queries; once per
            # round of the three texts, the CLI answers one more
            dt = self.run_batch(gl, [next(checks[name]) for _ in range(CHECK_QUERIES)], refs[name])
            query_s += dt
            queries += CHECK_QUERIES
            busy += dt
            self.calibrate()
            if cycle % len(names) == len(names) - 1:
                busy += self.cli_query(cli_index, refs["random-26"], next(cli_stream)[1])
                self.calibrate()
            setup_probe(busy)
            cycle += 1
        self.sizes = {"chars": N_BUILD, "index_bytes": statistics.mean(sizes.values()),
                      "loaded_mb": statistics.mean(self.held_mb(self.workdir / f"{nm}.rlslp")
                                                   for nm in names)}
        return queries / query_s, queries

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, loop: tuple[float, int]) -> tuple[dict[str, float], dict[str, int]]:
        """End-to-end metrics and the sample count behind each, given the
        main loop's throughput and query count."""
        lces = self.lat["lce"] + self.lat["rev"]
        ipms = self.lat["ipm"]
        chars = self.sizes["chars"]
        med, mean = statistics.median, statistics.fmean
        metrics = {
            "ipm_p50_us": pct(ipms, 50) / 1e3,
            "ipm_p99_us": pct(ipms, 99) / 1e3,
            "lce_p50_us": pct(lces, 50) / 1e3,
            "lce_p99_us": pct(lces, 99) / 1e3,
            "queries_per_s": loop[0],
            "build_us_per_char": mean(self.times["build"]) / chars * 1e6,
            "load_us_per_char": mean(self.times["load"]) / chars * 1e6,
            "index_bytes_per_char": self.sizes["index_bytes"] / chars,
            "loaded_table_mb": self.sizes["loaded_mb"],
            "cli_query_ms": med(self.times["cli"]) * 1e3,
            "setup_s": med(self.times["setup"]),
        }
        samples = {
            "ipm_p50_us": len(ipms), "ipm_p99_us": len(ipms),
            "lce_p50_us": len(lces), "lce_p99_us": len(lces),
            "queries_per_s": loop[1],
            "build_us_per_char": len(self.times["build"]),
            "load_us_per_char": len(self.times["load"]),
            "index_bytes_per_char": 1, "loaded_table_mb": 1,
            "cli_query_ms": len(self.times["cli"]),
            "setup_s": len(self.times["setup"]),
        }
        return metrics, samples

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of a traced run: self times per IPM query, counts
        at the layer boundaries, step ratios and set-up layers."""
        tr, ti = self.tracer, self.traced_ipm
        nq = ti.queries
        per_q = lambda name: tr.self_ns(name) / nq / 1e3
        verify_lce_ns = (tr.total_ns("lce", "verify_progression")
                         + tr.total_ns("rev_lce", "verify_progression"))
        layer_sum = sum(tr.self_ns(name, parent) for name in LAYER_SPANS
                        for parent in ("ipm_query", "verify_progression"))
        m = dict(self.layers)
        m.update({
            "popped.pseq_us": per_q("pseq"),
            "popped.q": ti.q / nq,
            "ipm.proxy_pattern_us": per_q("proxy_pattern"),
            "ipm.proxy_text_us": per_q("proxy_text"),
            "ipm.rle_match_us": per_q("rle_match"),
            "ipm.lift_us": per_q("lift_progression"),
            "ipm.verify_us": per_q("verify_progression"),
            "ipm.proxy_level": ti.proxy_level / nq,
            "ipm.window_syms": ti.window_syms / nq,
            "ipm.candidates_per_query": ti.candidates / nq,
            "ipm.verified_ratio": ti.verified / ti.candidates,
            "lce.lce_us": tr.total_ns("lce") / tr.calls("lce") / 1e3,
            "lce.rev_lce_us": tr.total_ns("rev_lce") / tr.calls("rev_lce") / 1e3,
            "lce.calls_per_ipm": (tr.calls("lce", "verify_progression")
                                  + tr.calls("rev_lce", "verify_progression")) / nq,
            "lce.share_of_ipm": verify_lce_ns / tr.total_ns("ipm_query"),
            "navigator.steps_per_ipm_r_p50": statistics.median(self.steps["ipm"]),
            "navigator.steps_per_ipm_r_max": max(self.steps["ipm"]),
            "navigator.steps_per_lce_r_p50": statistics.median(self.steps["lce"]),
            "navigator.steps_per_lce_r_max": max(self.steps["lce"]),
            "builder.build_s": statistics.fmean(self.times["build"]),
            "cli.save_s": statistics.fmean(self.times["save"]),
            "cli.load_s": statistics.fmean(self.times["load"]),
            "cli.index_bytes": self.sizes["index_bytes"],
            "cli.subprocess_ms": statistics.median(self.times["cli"]) * 1e3,
            "trace.ipm_untraced_p50_us": pct(self.lat["ipm"], 50) / 1e3,
            "trace.ipm_traced_p50_us": pct(self.traced_lat, 50) / 1e3,
            "trace.ipm_untraced_mean_us": statistics.fmean(self.lat["ipm"]) / 1e3,
            "trace.ipm_traced_mean_us": statistics.fmean(self.traced_lat) / 1e3,
            # a difference of means, like the layer self times it is held against
            "trace.overhead_us": (statistics.fmean(self.traced_lat)
                                  - statistics.fmean(self.lat["ipm"])) / 1e3,
            "trace.layer_sum_us": layer_sum / nq / 1e3,
        })
        return m
