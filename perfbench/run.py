"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload ipm-random --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file (or from ``--src``).  Every input comes from
``--seed``.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before
it starts with ``detail `` and holds sample counts, output fingerprints,
the raw (unscaled) values and run metadata as JSON.  Times are scaled to a
nominal machine speed; see CAL_NOMINAL_NS in workloads.py.  Exit code 2
means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_UNITS = {"s", "ms", "us", "us/char"}
RATE_UNITS = {"1/s"}
WORKLOADS = {"ipm-random": "ipm_random", "periodic-mixed": "periodic_mixed",
             "build-load": "build_load"}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine() -> dict:
    """Run metadata: interpreter, usable cores, commit, load average now."""
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "loadavg_start": list(os.getloadavg())}


def at_nominal_speed(value: float, unit: str, slowdown: float) -> float:
    """A time (or rate) measured at ``slowdown`` times the nominal machine
    speed, scaled to the nominal speed; other units pass through."""
    if unit in TIME_UNITS:
        return value / slowdown
    if unit in RATE_UNITS:
        return value * slowdown
    return value


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the rlslp package (default: src/ of this checkout)")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = args.src.resolve()
    if not (src / "rlslp" / "__init__.py").is_file():
        print(f"error: no rlslp package in {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [str(src), str(HERE)]
    import workloads  # imports rlslp from src

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine()}
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, src)
        loop = getattr(run, WORKLOADS[args.workload])()
        if args.trace:
            values, samples = run.per_layer(), {}
        else:
            values, samples = run.end_to_end(loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["loadavg_end"] = list(os.getloadavg())

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 2
    slowdown = run.slowdown()
    metrics = {m["name"]: {"value": at_nominal_speed(values[m["name"]], m["unit"], slowdown),
                           "unit": m["unit"]} for m in wanted}
    failed_ops = run.failed / run.attempted
    for name, m in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{args.workload}  {name:32s} {m['value']:14.6g} {m['unit']}{n}")
    print(f"{args.workload}  {'failed_ops':32s} {failed_ops:14.6g} share  "
          f"(n={run.attempted})")
    accounted = True
    if args.trace:
        # The layer self times must account for the untraced ipm_query time
        # within the tracing overhead, or the split measures another program.
        v = {name: m["value"] for name, m in metrics.items()}
        gap = abs(v["trace.layer_sum_us"] - v["trace.ipm_untraced_mean_us"])
        accounted = gap <= v["trace.overhead_us"]
        verdict = (f"layer self times {v['trace.layer_sum_us']:.1f} us vs untraced ipm_query "
                   f"{v['trace.ipm_untraced_mean_us']:.1f} us per query: gap {gap:.1f} us, "
                   f"{'within' if accounted else 'outside'} the tracing overhead "
                   f"{v['trace.overhead_us']:.1f} us")
        print(f"{args.workload}  {verdict}")
        if not accounted:
            run.errors.append(verdict)
        print(f"{args.workload}  steps/(r+1) at most {v['navigator.steps_per_ipm_r_max']:.1f} "
              f"per IPM (cap {workloads.IPM_CAP}), {v['navigator.steps_per_lce_r_max']:.1f} "
              f"per LCE (cap {workloads.LCE_CAP})")
    for err in run.errors:
        print(f"FAILED: {err}")
    print(f"{args.workload}  machine slowdown {slowdown:.4f} over {len(run.cal)} calibrations")
    detail = {"meta": meta, "samples": samples, "failed_ops": failed_ops,
              "slowdown": slowdown, "calibrations": len(run.cal), "raw": values,
              "fingerprint": run.fingerprint, "ipm_answers": run.ipm_counts}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0 and accounted, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
