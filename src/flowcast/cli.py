"""Operator entry points: embedding prep, training, evaluation, synthetic
data generation, and the attention complexity benchmark.

Every command derives all randomness from one seed, exits 0 only when its
contract completed, and reports failures on stderr with a nonzero code.
"""

from __future__ import annotations

import argparse
import datetime as dt
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import CSV_HEADER as BENCH_HEADER
from .bench import DEFAULT_BUDGET, run_benchmark
from .context import load_embeddings, node2vec_walks, save_embeddings, skipgram_train
from .data import (
    DatasetMeta,
    _check_mask_eps,
    assign_windows,
    load_dataset,
    load_meta,
    load_readings,
    make_windows,
    metrics,
    save_predictions,
    split_boundaries,
    zscore_apply,
)
from .graph import load_adjacency
from .model import (
    CSV_HEADER as METRICS_HEADER,
    ConfigError,
    TrainingDiverged,
    forecast,
    horizon_metrics,
    load_config,
    load_model,
    prepare_dataset,
    train,
)
from .synth import make_ring_dataset, write_dataset_files

__all__ = ["main"]


def version_string() -> str:
    """Package version, suffixed with the git commit when available."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if rev.returncode == 0:
            return f"{__version__}+g{rev.stdout.strip()}"
    except OSError:
        pass
    return __version__


def write_manifest(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# embed

def cmd_embed(args) -> int:
    _at_least_one(args, "walks", "window", "negatives", "epochs")
    graph = load_adjacency(args.graph)
    walks = node2vec_walks(
        graph, p=args.p, q=args.q, walk_len=args.length,
        walks_per_node=args.walks, seed=args.seed,
    )
    lengths = [len(w) for w in walks]
    embeddings = skipgram_train(
        walks, window=args.window, negatives=args.negatives,
        epochs=args.epochs, seed=args.seed, n_nodes=graph.n_nodes,
    )
    save_embeddings(args.out, embeddings)
    print(
        f"{len(walks)} walks over {graph.n_nodes} nodes "
        f"(length mean {np.mean(lengths):.1f}, min {min(lengths)}, "
        f"max {max(lengths)}); embeddings -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# train

def _config_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _meta_of(args, cfg) -> DatasetMeta:
    """The meta file ``--meta`` (else ``<data>.meta``), which must share the
    config's calendar, since the time one-hots follow the config."""
    meta_path = args.meta if args.meta else f"{args.data}.meta"
    meta = load_meta(meta_path)
    try:
        layout = (meta.slots_per_day, meta.start_weekday)
    except ValueError as err:  # a window that does not tile a day
        raise ConfigError(f"{meta_path}: {err}") from None
    if layout != (cfg.slots_per_day, cfg.start_weekday):
        raise ConfigError(
            f"{meta_path}: {layout[0]} slots a day from weekday {layout[1]}, but the "
            f"config has {cfg.slots_per_day} slots a day from weekday {cfg.start_weekday}"
        )
    return meta


def cmd_train(args) -> int:
    _check_mask_eps(args.mask_eps, "--mask-eps")
    cfg = load_config(args.config, _config_overrides(args.set))
    dataset, graph = load_dataset(args.data, args.graph, _meta_of(args, cfg))

    if args.embeddings:
        node_emb = load_embeddings(args.embeddings, graph.n_nodes)
    else:
        walks = node2vec_walks(graph, seed=cfg.seed)
        node_emb = skipgram_train(walks, seed=cfg.seed, n_nodes=graph.n_nodes)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = out_dir / "model.ckpt"
    metrics_csv = out_dir / "metrics.csv"
    manifest_path = out_dir / "manifest.json"

    manifest = {
        "command": "train",
        "version": version_string(),
        "seed": cfg.seed,
        "started_at": dt.datetime.now(dt.timezone.utc).isoformat(),
        "ended_at": None,
        "config": {k: getattr(cfg, k) for k in cfg.__dataclass_fields__},
        "outputs": {"checkpoint": str(checkpoint), "metrics": str(metrics_csv)},
    }
    write_manifest(manifest_path, manifest)

    prepared = prepare_dataset(dataset)
    rows_out = [METRICS_HEADER]

    def log_row(row):
        rows_out.append(row.csv_row())
        print(row.csv_row())

    try:
        train(
            cfg, prepared, graph, node_emb,
            checkpoint_path=checkpoint, log_fn=log_row, mask_eps=args.mask_eps,
        )
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1
    finally:
        # every exit, failed or not, keeps the epochs logged so far
        metrics_csv.write_text("\n".join(rows_out) + "\n")
        manifest["ended_at"] = dt.datetime.now(dt.timezone.utc).isoformat()
        write_manifest(manifest_path, manifest)

    print(f"checkpoint -> {checkpoint}")
    print(f"metrics -> {metrics_csv}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _counts(flag: str, text: str, distinct: bool = False) -> list[int]:
    """``flag``'s comma-separated items, each an integer >= 1, and each
    given once when ``distinct``."""
    counts: list[int] = []
    for item in (part.strip() for part in text.split(",")):
        if not item:
            continue
        try:
            n = int(item)
        except ValueError:
            raise ValueError(f"{flag}: {item!r} is not an integer") from None
        if n < 1:
            raise ValueError(f"{flag}: {item!r} is below 1")
        if distinct and n in counts:
            raise ValueError(f"{flag}: {item!r} is given twice")
        counts.append(n)
    return counts


def _at_least_one(args, *names: str) -> None:
    """Reject each integer option ``names`` below 1, naming its flag."""
    for name in names:
        _counts(f"--{name}", str(getattr(args, name)))


def cmd_eval(args) -> int:
    _check_mask_eps(args.mask_eps, "--mask-eps")
    horizons = _counts("--horizons", args.horizons, distinct=True)
    model, _ = load_model(args.checkpoint)
    cfg = model.cfg
    meta = _meta_of(args, cfg)
    if meta.n_nodes != model.ginputs.graph.n_nodes:
        raise ValueError(
            f"checkpoint was trained on {model.ginputs.graph.n_nodes} nodes, data has {meta.n_nodes}"
        )
    readings = load_readings(args.data, meta.n_nodes, meta.channels)
    if model.norm is None:
        raise ValueError("checkpoint carries no normalization stats")
    normalized = zscore_apply(readings, model.norm)
    windows = make_windows(normalized, cfg.history, cfg.horizon)
    split_idx = assign_windows(windows, split_boundaries(readings.shape[0]))
    chosen = [windows[i] for i in split_idx[args.split]]
    if not chosen:
        raise ValueError(f"no complete windows in split {args.split!r}")

    preds, truth = forecast(model, chosen, horizons)
    results = horizon_metrics(preds, truth, horizons, args.mask_eps)

    lines = ["horizon,mae,rmse,mape"]
    for key in [str(h) for h in horizons] + ["average"]:
        mae, rmse, mape = results[key]
        lines.append(f"{key},{mae:.6f},{rmse:.6f},{mape:.6f}")
        print(f"{key:>8}: MAE {mae:.4f}  RMSE {rmse:.4f}  MAPE {mape:.2f}%")
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")

    if args.predictions:
        save_predictions(args.predictions, (
            (w.t0 + cfg.history + t, node, ch, float(pred[t, node, ch]), float(actual[t, node, ch]))
            for w, pred, actual in zip(chosen, preds, truth)
            for t, node, ch in np.ndindex(pred.shape)
        ))
    return 0


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    sizes = _counts("--sizes", args.sizes)
    _at_least_one(args, "dim", "repeats")
    rows = run_benchmark(
        sizes, dim=args.dim, repeats=args.repeats, budget=args.budget,
        seed=args.seed, log=print,
    )
    lines = [BENCH_HEADER] + [row.csv_row() for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"benchmark -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    _at_least_one(args, "nodes", "steps", "period")
    try:
        dataset, graph = make_ring_dataset(
            n_nodes=args.nodes, steps=args.steps, period=args.period,
            noise=args.noise, seed=args.seed,
        )
    except ValueError as err:  # the counts are checked above; noise is what is left
        raise ValueError(f"--noise: {err}") from None
    paths = write_dataset_files(args.out, dataset, graph)
    for name, path in paths.items():
        print(f"{name} -> {path}")
    return 0


# ---------------------------------------------------------------------------

def _library_flags(parser, fn, *flags: str) -> None:
    """Add each flag ``"name"`` or ``"name=param"`` as ``--name``, defaulted and typed
    as ``fn``'s parameter ``param`` (if not given, ``name`` with ``_`` for ``-``)."""
    signature = inspect.signature(fn).parameters
    for flag in flags:
        name, _, param = flag.partition("=")
        default = signature[param or name.replace("-", "_")].default
        parser.add_argument(f"--{name}", type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcast",
        description="Road-traffic forecasting with joint space-time linear attention",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="compute node embeddings from the road graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    _library_flags(p, node2vec_walks, "p", "q", "walks=walks_per_node", "length=walk_len")
    _library_flags(p, skipgram_train, "window", "negatives", "epochs", "seed")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("train", help="train a forecaster")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--meta", help="defaults to <data>.meta")
    p.add_argument("--out", required=True)
    _library_flags(p, train, "mask-eps")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config value")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--meta", help="defaults to <data>.meta")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--horizons", default="3,6,12")
    _library_flags(p, metrics, "mask-eps")
    p.add_argument("--out", help="write per-horizon metrics CSV here")
    p.add_argument("--predictions", help="write t_abs,node,channel,pred,truth CSV here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="compare attention kernel complexity")
    p.add_argument("--sizes", default="1024,4096")
    _library_flags(p, run_benchmark, "dim", "repeats", "seed")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max M*M entries the quadratic kernel may allocate")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("synth", help="generate the synthetic ring dataset")
    p.add_argument("--out", required=True)
    _library_flags(p, make_ring_dataset, "nodes=n_nodes", "steps", "period", "noise", "seed")
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError, ArithmeticError, AssertionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
