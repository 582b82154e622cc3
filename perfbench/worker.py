"""Run one workload in a fresh process: set up, do the fixed work, report.

Usage (run.py starts it): python3 worker.py SPEC.json RESULT.json

The clock starts before flowcast is imported, so ``setup_s`` covers the
imports, data load, z-score, windows, embeddings or ``load_model``, graph
preprocessing and parameter init, up to the first training step or
prediction. With ``setup_only`` the worker stops there.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# MAPE masks truths below this; the synthetic rings swing around zero, and
# the library default of 1.0 would mask every entry.
MASK_EPS = 1e-6

# Per-layer metrics: metric -> span name. Times are self seconds.
PER_SAMPLE = {   # ... divided by the samples forwarded (trained or predicted)
    "model.forward_s": "model.forward",
    "model.context_block_s": "model.context_block",
    "model.transform_layer_s": "model.transform_layer",
    "model.evaluate_s": "model.evaluate",
    "graph.multi_hop_conv_s": "graph.multi_hop_conv",
    "context.gru_sequence_s": "context.gru_sequence",
    "context.gru_cell_s": "context.gru_cell",
    "attention.multi_head_attention_s": "attention.multi_head_attention",
}
PER_TRAIN_SAMPLE = {  # ... divided by the samples trained on
    "tensor.backward_s": "tensor.backward",
    "optim.adam_step_s": "optim.adam_step",
}
PER_CALL = {  # ... divided by the outermost calls
    "graph.build_s": "graph.build",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "data.load_s": "data.load",
    "data.make_windows_s": "data.make_windows",
    "data.metrics_s": "data.metrics",
    "context.node2vec_walks_s": "context.node2vec_walks",
    "context.skipgram_train_s": "context.skipgram_train",
}
CALL_COUNTS = {
    "graph.multi_hop_conv_calls": "graph.multi_hop_conv",
    "attention.multi_head_attention_calls": "attention.multi_head_attention",
}
# Per-layer metrics a workload does not run read exactly zero there; every
# other one must be above zero, so a layer that drops out of the trace
# fails the run. The cyclic GC may rightly never run, so its two metrics
# are not checked.
ABSENT_ON = {
    "tensor.backward_s": {"ref228-infer"},
    "optim.adam_step_s": {"ref228-infer"},
    "tensor.graph_nodes_per_sample": {"ref228-infer"},
    "context.node2vec_walks_s": {"ref228-train", "ref228-infer"},
    "context.skipgram_train_s": {"ref228-train", "ref228-infer"},
}
UNCHECKED = {"tensor.gc_collections", "tensor.gc_pause_s"}


class SetupDone(Exception):
    """Raised at the first training step of a set-up-only run."""


class StepClock:
    """Times train() from outside: a step runs from ``zero_grads`` to the
    end of ``adam_step``; an epoch ends when train() logs its rows."""

    def __init__(self, stop_at_first_step: bool):
        self.stop = stop_at_first_step
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rows: list = []
        self.epoch_ends: dict[int, float] = {}

    def install(self, model) -> None:
        zero, adam = model.zero_grads, model.adam_step

        def zero_grads(params):
            self.starts.append(time.perf_counter())
            if self.stop:
                raise SetupDone
            zero(params)

        def adam_step(*args, **kwargs):
            adam(*args, **kwargs)
            self.ends.append(time.perf_counter())

        model.zero_grads, model.adam_step = zero_grads, adam_step

    def log(self, row) -> None:
        self.epoch_ends.setdefault(row.epoch, time.perf_counter())
        self.rows.append(row)


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    ranked = sorted(values)
    return {"value": ranked[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def shell_nnz(forecaster) -> int:
    import numpy as np

    hops = forecaster.ginputs.hops
    return int(np.count_nonzero(getattr(hops, "hops", hops)))


def round_trip(model, m, state, windows, path: Path) -> list[str]:
    """load_model(save_model(m)) must predict bit for bit what m predicts."""
    import numpy as np

    model.save_model(path, m, state)
    loaded, _ = model.load_model(path)
    xs = np.stack([w.x for w in windows])
    t0s = [w.t0 for w in windows]
    ours, theirs = m.predict(xs, t0s), loaded.predict(xs, t0s)
    problems = []
    if not np.all(np.isfinite(ours)):
        problems.append("round-trip check: prediction is non-finite")
    if ours.tobytes() != theirs.tobytes():
        problems.append("round-trip check: load_model(save_model(m)) predicts differently from m")
    return problems


def run_train(p, spec, paths, out, modules) -> dict:
    context, data, model = modules
    clock = StepClock(spec["setup_only"])
    clock.install(model)

    meta = data.load_meta(paths["meta"])
    dataset, graph = data.load_dataset(paths["readings"], paths["adjacency"], meta)
    cfg = model.load_config(Path(spec["root"]) / p.config, p.overrides)
    if p.embed_with_walks:       # what `flowcast train` does without --embeddings
        walks = context.node2vec_walks(graph, seed=cfg.seed)
        emb = context.skipgram_train(walks, seed=cfg.seed, n_nodes=graph.n_nodes)
    else:
        emb = context.load_embeddings(paths["embeddings"], graph.n_nodes)
    prepared = model.prepare_dataset(dataset, p.fractions)
    ckpt = out / "train.ckpt"
    try:
        trained, _ = model.train(
            cfg, prepared, graph, emb, checkpoint_path=ckpt,
            log_fn=clock.log, mask_eps=MASK_EPS,
        )
    except SetupDone:
        return {"setup_s": clock.starts[0] - T0}
    except Exception as err:  # a failed step ends train(); report it, never crash
        return {
            "setup_s": clock.starts[0] - T0 if clock.starts else None,
            "attempted": max(1, len(clock.starts)), "failed": 1,
            "problems": [f"train() raised {type(err).__name__}: {err}"],
        }
    finished = time.perf_counter()

    problems = []
    per_epoch = math.ceil(p.train_windows / cfg.batch_size)
    steps = [end - start for start, end in zip(clock.starts, clock.ends)]
    if len(steps) != cfg.epochs * per_epoch or p.train_windows % cfg.batch_size:
        problems.append(f"ran {len(steps)} steps, expected {cfg.epochs} x {per_epoch} full batches")
    # Epoch 0 pays one-off warm-up (the heap grows to its working size), so
    # throughput and per-epoch time come from the later epochs.
    timed = steps[per_epoch:] if cfg.epochs > 1 else steps
    first_timed = 1 if cfg.epochs > 1 else 0
    epochs = [clock.epoch_ends[e] - clock.starts[e * per_epoch] for e in range(first_timed, cfg.epochs)]
    train_mae = [r.mae for r in clock.rows if r.split == "train"]
    val_mae = [r.mae for r in clock.rows if r.split == "val"]
    if not all(math.isfinite(v) for v in train_mae + val_mae) or not val_mae:
        problems.append(f"non-finite or missing MAE: train {train_mae}, val {val_mae}")
    elif p.check_mae_falls and not train_mae[-1] < train_mae[0]:
        problems.append(f"train MAE did not fall: {train_mae[0]:.6g} -> {train_mae[-1]:.6g}")

    peak_mb = peak_rss_mb()  # before the check loads a second copy of the model
    windows = data.make_windows(prepared.readings, cfg.history, cfg.horizon)
    val_start = prepared.splits["val"].start
    problems += round_trip(
        model, trained, None, windows[val_start : val_start + p.check_windows], out / "roundtrip.ckpt"
    )
    return {
        "setup_s": clock.starts[0] - T0,
        "attempted": len(clock.starts), "failed": 0, "problems": problems,
        "train_samples": len(steps) * cfg.batch_size,
        "ops_s": steps,
        "metrics": {
            "samples_per_s": cfg.batch_size * len(timed) / sum(timed),
            "op_s_p50": statistics.median(timed),
            "work_s": finished - clock.starts[0],
            "eval_mae": val_mae[-1] if val_mae else None,
            "peak_rss_mb": peak_mb,
        },
        "extra": {
            "epoch_s": statistics.median(epochs),
            "train_mae_first": train_mae[0], "train_mae_last": train_mae[-1],
            "op_s_tail": tail(timed), "timed_ops": len(timed),
            "checkpoint_bytes": ckpt.stat().st_size,
            "shell_nnz": shell_nnz(trained),
        },
    }


def run_infer(p, spec, paths, out, modules) -> dict:
    import numpy as np

    _, data, model = modules
    meta = data.load_meta(paths["meta"])
    readings = data.load_readings(paths["readings"], meta.n_nodes, meta.channels)
    m, state = model.load_model(paths["checkpoint"])
    cfg = m.cfg
    windows = data.make_windows(data.zscore_apply(readings, m.norm), cfg.history, cfg.horizon)
    split = data.assign_windows(windows, data.split_boundaries(readings.shape[0]))
    test = [windows[i] for i in split["test"]]
    setup_s = time.perf_counter() - T0
    if spec["setup_only"]:
        return {"setup_s": setup_s}

    started = time.perf_counter()
    durations, predicted, failed, problems = [], 0, 0, []
    for call in range(p.predict_calls):
        chunk = [test[(call * p.predict_batch + j) % len(test)] for j in range(p.predict_batch)]
        xs = np.stack([w.x for w in chunk])
        if spec["inject_nan"] and call == 1:
            xs[0, 0, 0, 0] = math.nan
        tick = time.perf_counter()
        try:
            pred = m.predict(xs, [w.t0 for w in chunk])
        except Exception as err:  # a failed call is counted; the loop goes on
            failed += 1
            if failed <= 3:
                print(f"predict call {call} failed: {type(err).__name__}: {err}", file=sys.stderr)
            continue
        seconds = time.perf_counter() - tick
        if not np.all(np.isfinite(pred)):
            failed += 1
            problems.append(f"predict call {call} returned non-finite values")
            continue
        durations.append(seconds)
        predicted += len(chunk)
    result = model.evaluate(m, test[: p.eval_windows], horizons=[3, 6, 12], mask_eps=MASK_EPS)
    finished = time.perf_counter()
    eval_mae = result["average"][0]
    if not math.isfinite(eval_mae):
        problems.append(f"evaluate MAE is non-finite: {eval_mae}")
    if not durations:
        problems.append("no predict call succeeded")
    peak_mb = peak_rss_mb()  # before the check loads a second copy of the model
    problems += round_trip(model, m, state, test[: p.check_windows], out / "roundtrip.ckpt")
    return {
        "setup_s": setup_s,
        "attempted": p.predict_calls, "failed": failed, "problems": problems,
        "train_samples": 0,
        "ops_s": durations,
        "metrics": {
            "samples_per_s": predicted / sum(durations) if durations else None,
            "op_s_p50": statistics.median(durations) if durations else None,
            "work_s": finished - started,
            "eval_mae": eval_mae,
            "peak_rss_mb": peak_mb,
        },
        "extra": {
            "op_s_tail": tail(durations), "timed_ops": len(durations),
            "eval_rows": {k: list(v) for k, v in result.items()},
            "checkpoint_bytes": (out / "roundtrip.ckpt").stat().st_size,
            "shell_nnz": shell_nnz(m),
        },
    }


def per_layer(tracer, result: dict, workload: str) -> tuple[dict, dict, list[str]]:
    """The per-layer metrics, the span summary they came from, and the
    problems: layers that read zero where they should run, or not zero
    where they should not."""
    summary = tracer.summary()
    samples = max(1, tracer.samples)
    trained = max(1, result.get("train_samples", 0))

    def self_s(span):
        return summary.get(span, {}).get("self_s", 0.0)

    def outer(span):
        return summary.get(span, {}).get("outer_calls", 0)

    layers = {k: self_s(span) / samples for k, span in PER_SAMPLE.items()}
    layers.update({k: self_s(span) / trained for k, span in PER_TRAIN_SAMPLE.items()})
    layers.update({k: self_s(span) / outer(span) if outer(span) else 0.0 for k, span in PER_CALL.items()})
    layers.update({k: summary.get(span, {}).get("calls", 0) for k, span in CALL_COUNTS.items()})
    extra = result.get("extra", {})
    layers.update({
        "tensor.graph_nodes_per_sample": tracer.graph_nodes_per_sample,
        "tensor.gc_collections": tracer.gc_collections,
        "tensor.gc_pause_s": tracer.gc_pause_s / samples,
        "checkpoint.bytes": extra.get("checkpoint_bytes", 0),
        "graph.shell_nnz": extra.get("shell_nnz", 0),
        "trace.samples_per_s": result["metrics"]["samples_per_s"],
    })
    problems = []
    for name, value in layers.items():
        absent = workload in ABSENT_ON.get(name, ())
        if name not in UNCHECKED and (value != 0 if absent else not value > 0):
            problems.append(f"per-layer {name} is {value}, expected {'0' if absent else 'above 0'} on {workload}")
    return layers, summary, problems


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from flowcast import context, data, model

    from workloads import plan

    p = plan(spec["workload"], spec["seconds"])
    out = Path(spec["out"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(f"{spec['workload']}/seed{spec['seed']}")
        tracer.install()
    run = run_train if p.trains else run_infer
    result = run(p, spec, spec["inputs"]["paths"], out, (context, data, model))
    if tracer is not None:
        tracer.uninstall_gc()
        if "metrics" in result:
            result["per_layer"], result["spans"], problems = per_layer(tracer, result, spec["workload"])
            result["problems"] += problems
        tracer.write(out / "spans.jsonl")
    Path(result_path).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
