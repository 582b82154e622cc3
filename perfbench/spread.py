"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload toy-train --runs 10 [--first-seed 1] [--trace 0]

For each metric it prints the median, the quartiles (statistics.quantiles
with n=4) and the interquartile range as a share of the median, beside
the metric's bound from BENCHMARK.json. Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 1
        runs.append({"seed": seed, "wall_s": wall, **result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({wall:.0f} s): " + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    print(f"\n{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                         "iqr_share": share, "bound": bounds.get(name)}
        bound = bounds.get(name)
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{bound if bound is not None else '':>6}")
    out = HERE / "out" / f"spread-{args.workload}-t{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
