"""flowcast benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs in a fresh worker
process; untraced runs also set up in extra fresh processes, half before
and half after the workload, and report the median set-up time.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``, as listed in BENCHMARK.json).
A run whose outputs fail a check prints ``correct: false`` and no
metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from machine import facts, pin_blas_env  # noqa: E402

pin_blas_env(os.environ)  # before anything imports numpy, here and in workers

from workloads import WORKLOADS, plan, write_inputs  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s


def run_worker(spec: dict, out: Path, tag: str, deadline: float) -> dict:
    spec_path, result_path = out / f"{tag}.spec.json", out / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {tag} worker")
    # subprocess.run kills and reaps the worker when the timeout expires.
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        stdout=sys.stderr, timeout=remaining,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{tag} worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-nan", action="store_true",
                        help="feed one NaN window to predict (ref228-infer; smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowcast" / "__init__.py").is_file():
        print(f"error: no flowcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    p = plan(args.workload, args.seconds)
    if args.inject_nan and p.trains:
        parser.error("--inject-nan applies to ref228-infer only")
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(ROOT / "src"))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    out = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    machine = facts(ROOT)
    inputs = write_inputs(p, args.seed, ROOT, out / "inputs")
    spec = {
        "root": str(ROOT), "out": str(out), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inject_nan": args.inject_nan, "setup_only": False, "inputs": inputs,
    }

    # Extra set-ups only matter for setup_s, which traced runs do not report.
    # Half run before the workload and half after, so their median spans
    # more of the host's slow and fast stretches.
    extra = 0 if args.trace else p.setups - 1
    try:
        extra_setups = [
            run_worker({**spec, "setup_only": True}, out, f"setup{i}", deadline)
            for i in range(extra // 2)
        ]
        main_run = run_worker(spec, out, "main", deadline)
        extra_setups += [
            run_worker({**spec, "setup_only": True}, out, f"setup{i}", deadline)
            for i in range(extra // 2, extra)
        ]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "inputs", ignore_errors=True)
        for ckpt in out.glob("*.ckpt"):
            ckpt.unlink()

    setups = [r["setup_s"] for r in extra_setups] + [main_run.get("setup_s")]
    problems = list(main_run.get("problems", []))
    values = {}
    if "metrics" in main_run:
        values = dict(main_run["metrics"])
        values["setup_s"] = statistics.median(setups) if all(map(finite, setups)) else None
        values.update(main_run.get("per_layer", {}))
    for metric in wanted:
        if not finite(values.get(metric["name"])):
            problems.append(f"metric {metric['name']} is missing or not finite")
    attempted, failed = main_run.get("attempted", 1), main_run.get("failed", 1)
    correct = not problems

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "inputs_digest": inputs["digest"],
        "setup_samples_s": setups, "values": values, "extra": main_run.get("extra", {}),
        "failed_op_ratio": failed / max(1, attempted), "problems": problems,
        "spans": main_run.get("spans", {}), "ops_s": main_run.get("ops_s", []),
    }
    (out / "report.json").write_text(json.dumps(report, indent=1))
    print_report(report, attempted, failed)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    } if correct else {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_report(report: dict, attempted: int, failed: int) -> None:
    m = report["machine"]
    print(f"# perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"# machine: {m['cpu']}; {m['cores']} cores ({m['cores_usable']} usable); "
          f"{m['blas']} with {m['blas_threads_pinned']} thread(s) pinned "
          f"({m['blas_threads_reported']} reported); Python {m['python']}; "
          f"numpy {m['numpy']}; source {m['source']}")
    print(f"# set-up samples (s): {', '.join(f'{s:.3f}' for s in report['setup_samples_s'] if s)}")
    print(f"# operations: {attempted} attempted, {failed} failed "
          f"(failed_op_ratio {report['failed_op_ratio']:.4g})")
    for name, value in sorted(report["values"].items()):
        print(f"#   {name:40s} {value:.6g}" if finite(value) else f"#   {name:40s} {value}")
    for name, value in sorted(report["extra"].items()):
        print(f"#   {name:40s} {value}")
    if report["spans"]:
        print(f"#   {'span':34s} {'calls':>8s} {'self s':>10s}")
        for name, row in report["spans"].items():
            print(f"#   {name:34s} {row['calls']:8d} {row['self_s']:10.4f}")
    for problem in report["problems"]:
        print(f"# CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
