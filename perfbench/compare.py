"""Compare two result files of ``suite.py``: a base (parent) and a change.

    python3 perfbench/compare.py BASE.json CHANGE.json

For each workload and metric it prints each side's median and quartiles,
how many seed-matched pairs each side won, and for end-to-end metrics a
verdict under the bound in BENCHMARK.json, once on the values scaled to
nominal machine speed and once on the raw values, so that an artefact of
the scaling cannot pass unseen:

- ``improved``: the change wins at least 9/10 of the pairs and its median
  is better than the base's by more than the base's quartile distance;
- ``unresolved``: either side's quartile distance exceeds the bound, and
  not every run of one side beats every run of the other;
- ``worse``: the change's median is worse than the base's by more than the
  bound;
- ``no worse``: otherwise.

It then lists, per workload and seed, whether the output fingerprints
(index bytes, answer digests, step totals) are identical.  Exit code 1 if
any verdict, scaled or raw, is ``worse`` or a run failed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT  # noqa: E402
from suite import quartiles  # noqa: E402


def by_workload(data: dict) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for r in data["runs"]:
        if "metrics" in r:
            out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def sides(ra: dict, rb: dict, seeds: list[int], key: str, name: str,
          lower: bool) -> tuple[list[float], list[float], int, int]:
    """Both sides' values of one metric (``key`` is ``metrics`` for scaled
    values, ``raw`` for raw ones) and how many seed pairs each side won."""
    a = [r[key][name] for r in ra.values()]
    b = [r[key][name] for r in rb.values()]
    wins_a = wins_b = 0
    for s in seeds:
        x, y = ra[s][key][name], rb[s][key][name]
        if x != y:
            if (y < x) == lower:
                wins_b += 1
            else:
                wins_a += 1
    return a, b, wins_a, wins_b


def verdict(a: list[float], b: list[float], wins_b: int, pairs: int,
            bound: float, lower: bool) -> str:
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    better = (lambda u, v: u < v) if lower else (lambda u, v: u > v)
    worse_by = ((mb - ma) if lower else (ma - mb)) / ma
    if pairs and wins_b >= 0.9 * pairs and better(mb, ma) and abs(mb - ma) > qa3 - qa1:
        return "improved"
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    if spread > bound:
        if all(better(x, y) for x in b for y in a):
            return "no worse"
        if all(better(y, x) for x in b for y in a) and worse_by > bound:
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "no worse"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better_of = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    runs_a, runs_b = by_workload(base), by_workload(change)
    bad = any("error" in r or not r.get("correct") for d in (base, change) for r in d["runs"])

    print(f"{'workload':15s} {'metric':32s} {'base median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins b/c':>8s}  {'verdict':10s} raw verdict")
    for workload in [w for w in runs_a if w in runs_b]:
        ra, rb = runs_a[workload], runs_b[workload]
        seeds = sorted(ra.keys() & rb.keys())
        names = [n for n in next(iter(ra.values()))["metrics"] if n in next(iter(rb.values()))["metrics"]]
        for name in names:
            lower = better_of.get(name, "lower") == "lower"
            a, b, wins_a, wins_b = sides(ra, rb, seeds, "metrics", name, lower)
            v = raw_v = "-"
            if name in e2e:
                bound = e2e[name]["bound"]
                v = verdict(a, b, wins_b, len(seeds), bound, lower)
                raw = sides(ra, rb, seeds, "raw", name, lower)
                raw_v = verdict(raw[0], raw[1], raw[3], len(seeds), bound, lower)
                bad |= "worse" in (v, raw_v)
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:15s} {name:32s} "
                  f"{qa[1]:12.6g} [{qa[0]:10.5g}, {qa[2]:10.5g}] "
                  f"{qb[1]:12.6g} [{qb[0]:10.5g}, {qb[2]:10.5g}] "
                  f"{wins_a:3d}/{wins_b:<3d}  {v:10s} {raw_v}")
        for s in seeds:
            fa, fb = ra[s]["fingerprint"], rb[s]["fingerprint"]
            diff = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
            print(f"{workload:15s} seed {s}: fingerprints "
                  + ("identical" if not diff else "differ in " + ", ".join(diff)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
