"""Spans around the package's public layer calls, for the traced run.

A span records its name, its parent span's name, its duration and its self
time (duration minus the time covered by its child spans).  Spans are
aggregated per (name, parent) as they close, so a long traced run keeps
constant memory.  ``TracedIpm`` calls the layers the way ``ipm_query``
does, one span per call, so its answer can be checked against
``ipm_query``'s own.
"""

from __future__ import annotations

from time import perf_counter_ns

from rlslp import ipm as ipm_mod
from rlslp.ipm import lift_progression, proxy_pattern, proxy_text, rle_match, verify_progression
from rlslp.popped import pseq


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, start_ns, child_ns]
        # (name, parent name) -> [calls, total_ns, self_ns]
        self.agg: dict[tuple[str, str | None], list[int]] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        frame = [name, 0, 0]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - frame[1]
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2] += dur
            key = (name, parent[0] if parent is not None else None)
            rec = self.agg.get(key)
            if rec is None:
                rec = self.agg[key] = [0, 0, 0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[2]

    def _sum(self, field: int, name: str, parent) -> int:
        return sum(r[field] for (nm, par), r in self.agg.items()
                   if nm == name and (parent == "*" or par == parent))

    def calls(self, name: str, parent="*") -> int:
        return self._sum(0, name, parent)

    def total_ns(self, name: str, parent="*") -> int:
        return self._sum(1, name, parent)

    def self_ns(self, name: str, parent="*") -> int:
        return self._sum(2, name, parent)


class TracedIpm:
    """IPM rebuilt from its layer calls, with counts taken at each boundary.

    Follows the valid-input path of ``ipm_query``: pseq -> proxy_pattern ->
    proxy_text -> rle_match -> lift/verify per candidate, and returns the
    union of the verified progressions as a sorted position list.  The LCE
    calls that verification makes are wrapped in spans for the duration of
    the verification only.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.queries = self.q = self.proxy_level = self.window_syms = 0
        self.candidates = self.verified = 0
        lce0, rev0 = ipm_mod.lce, ipm_mod.rev_lce
        self._plain = (lce0, rev0)
        self._wrapped = (
            lambda g, i, j, nav=None: tracer.call("lce", lce0, g, i, j, nav),
            lambda g, i, j, nav=None: tracer.call("rev_lce", rev0, g, i, j, nav),
        )

    def __call__(self, g, x: int, x2: int, y: int, y2: int, nav) -> list[int]:
        return self.tracer.call("ipm_query", self._layers, g, x, x2, y, y2, nav)

    def _layers(self, g, x, x2, y, y2, nav) -> list[int]:
        call = self.tracer.call
        self.queries += 1
        if y2 - y < x2 - x:
            return []
        ps = call("pseq", pseq, g, x, x2, nav)
        pp = call("proxy_pattern", proxy_pattern, g, x, x2, nav, ps=ps)
        pt = call("proxy_text", proxy_text, g, y, y2, pp, nav)
        self.q += ps.q
        self.proxy_level += pp.level
        self.window_syms += pt.sym_len
        if pt.sym_len < pp.sym_len:
            return []
        cands = call("rle_match", rle_match, pp.rle, pt.rle)
        self.candidates += len(cands)
        found: set[int] = set()
        ipm_mod.lce, ipm_mod.rev_lce = self._wrapped
        try:
            for vl in cands:
                v, gstep = call("lift_progression", lift_progression, g, vl, pt, pp)
                ver = call("verify_progression", verify_progression,
                           g, v, gstep, pp, x, x2, y, y2, nav)
                if ver.count:
                    self.verified += 1
                    found.update(ver.positions())
        finally:
            ipm_mod.lce, ipm_mod.rev_lce = self._plain
        return sorted(found)
