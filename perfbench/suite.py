"""Run the benchmark workloads over several seeds and write one result file.

    python3 perfbench/suite.py --seeds 1-10 --out perfbench/_work/change.json

Each (seed, workload) pair runs ``run.py`` in a fresh interpreter, the way
the benchmark command is run, workloads interleaved within a seed.  The table
printed at the end gives, per workload and metric, the median with its
quartiles and their spread as a share of the median, the unit, and the
median sample count behind one run's value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, machine  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_one(workload: str, seed: int, seconds: float, trace: int, src: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if src is not None:
        cmd += ["--src", str(src)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "error": proc.stderr.strip()[-2000:],
                "exit": proc.returncode, "wall_s": wall}
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail "):])
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "failed_ops": detail["failed_ops"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "samples": detail["samples"], "fingerprint": detail["fingerprint"],
            "ipm_answers": detail["ipm_answers"], "meta": detail["meta"],
            "slowdown": detail["slowdown"], "raw": detail["raw"],
            "errors": [ln for ln in lines if ln.startswith("FAILED: ")]}


def table(data: dict, spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out = [f"{'workload':15s} {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
           f"{'spread':>7s} {'unit':8s} {'samples':>8s} runs"]
    for workload in dict.fromkeys(r["workload"] for r in data["runs"]):
        runs = [r for r in data["runs"] if r["workload"] == workload and "metrics" in r]
        if not runs:
            out.append(f"{workload:15s} no successful run")
            continue
        for name in runs[0]["metrics"]:
            q1, med, q3 = quartiles([r["metrics"][name] for r in runs])
            counts = [r["samples"][name] for r in runs if name in r["samples"]]
            n = f"{statistics.median(counts):8.0f}" if counts else f"{'-':>8s}"
            spread = (q3 - q1) / med if med else float("nan")
            out.append(f"{workload:15s} {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                       f"{spread:7.3f} {units.get(name, ''):8s} {n} {len(runs)}")
        fo = [r["failed_ops"] for r in runs]
        out.append(f"{workload:15s} {'failed_ops':32s} {statistics.median(fo):12.6g} "
                   f"{min(fo):12.6g} {max(fo):12.6g} {'':7s} {'share':8s} "
                   f"{statistics.median(r['attempted'] for r in runs):8.0f} {len(runs)}")
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0", help="seeds as in 0 or 1-10 or 1,4,7 (default 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, help="rlslp package directory to measure "
                    "(default: src/ of this checkout)")
    ap.add_argument("--out", type=Path, required=True, help="result file to write")
    ap.add_argument("--append", action="store_true",
                    help="add the runs to an existing result file")
    args = ap.parse_args(argv)

    if args.append and args.out.exists():
        data = json.loads(args.out.read_text())
    else:
        data = {"seconds": spec["run_seconds"], "trace": args.trace, "meta": machine(), "runs": []}
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            rec = run_one(workload, seed, spec["run_seconds"], args.trace, args.src)
            data["runs"].append(rec)
            if "error" in rec:
                ok = False
                print(f"{workload} seed {seed}: exit {rec['exit']}\n{rec['error']}", file=sys.stderr)
            else:
                ok &= rec["correct"]
                print(f"{workload} seed {seed}: {rec['wall_s']:.1f}s, "
                      f"{rec['failed']}/{rec['attempted']} failed", file=sys.stderr)
    data["meta"]["loadavg_end"] = list(os.getloadavg())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("\n".join(table(data, spec)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
