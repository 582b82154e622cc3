"""Smoke test of the benchmark itself; the library's suite lives in tests/.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at minimal length and must print every named metric
with its unit; another seed must change the inputs but not the metric
set; a NaN window must count as a failed operation without failing the
run; a layer that drops out of the trace must fail the traced run; and a
directory holding only the benchmark must fail without a result. Takes a
few minutes: each run starts fresh worker processes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed=1, trace=0, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_of(workload, seed, trace) -> dict:
    return json.loads((HERE / "out" / f"{workload}-s{seed}-t{trace}" / "report.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result = result_of(run(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0 or name in worker.UNCHECKED, name


def test_missing_lookup_site_fails_install(monkeypatch):
    import importlib

    for module, attr, _ in tracing.SITES:  # undone when the test ends
        monkeypatch.setattr(importlib.import_module(module), attr,
                            getattr(importlib.import_module(module), attr))
    monkeypatch.delattr(importlib.import_module("flowcast.model"), "gru_cell")
    with pytest.raises(AttributeError, match="gru_cell"):
        tracing.Tracer("test").install()


def test_layer_missing_from_trace_is_a_problem():
    result = {"train_samples": 4, "metrics": {"samples_per_s": 1.0},
              "extra": {"checkpoint_bytes": 10, "shell_nnz": 16}}
    _, _, problems = worker.per_layer(tracing.Tracer("test"), result, "ref228-infer")
    named = {problem.split()[1] for problem in problems}
    assert "context.gru_cell_s" in named and "graph.multi_hop_conv_calls" in named
    assert "tensor.backward_s" not in named and "tensor.gc_pause_s" not in named


def test_other_seed_changes_inputs_not_metric_set():
    first, second = (result_of(run("ref228-infer", seed)) for seed in (1, 2))
    assert set(first["metrics"]) == set(second["metrics"])
    assert report_of("ref228-infer", 1, 0)["inputs_digest"] != report_of("ref228-infer", 2, 0)["inputs_digest"]
    assert first["metrics"]["eval_mae"]["value"] != second["metrics"]["eval_mae"]["value"]


def test_nan_window_is_a_failed_operation():
    result = result_of(run("ref228-infer", 3, 0, "--inject-nan"))
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_without_sources_fails_without_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("toy-train", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
