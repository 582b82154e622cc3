"""Workload plans and the inputs they run on.

A plan fixes the amount of work a run does from ``--seconds`` alone, so
two commits measured with the same settings do the same work and their
losses and MAEs can be compared bit for bit. The constants below size
that work to take roughly ``--seconds`` on a 2-core x86 box with one
BLAS thread; a faster program finishes the same work sooner.

Inputs are generated from the workload seed by :func:`write_inputs`, in
the parent process and outside every timed region.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

WORKLOADS = ("toy-train", "ref228-train", "ref228-infer")

# Rows of readings a window spans beyond its own count: history + horizon - 1.
_SPAN_EXTRA = 12 + 12 - 1


@dataclass(frozen=True)
class Plan:
    config: str                       # model config, relative to the repo root
    overrides: dict = field(default_factory=dict)
    nodes: int = 8
    period: int = 96                  # readings per synthetic day
    steps: int = 2000                 # rows of readings
    fractions: tuple | None = None    # train/val/test split; None = library default
    train_windows: int = 0
    embed_with_walks: bool = False    # set-up runs node2vec + skip-gram
    check_mae_falls: bool = False     # training MAE must fall across the run
    predict_calls: int = 0
    predict_batch: int = 0
    eval_windows: int = 0
    check_windows: int = 1            # windows in the save/load round-trip check
    setups: int = 9                   # fresh set-ups per untraced run, the workload's included

    @property
    def trains(self) -> bool:
        return self.train_windows > 0


def _fractions(total: int, train_windows: int, val_windows: int) -> tuple:
    """Split fractions that floor to exactly the spans these windows need."""
    f_train = (train_windows + _SPAN_EXTRA + 0.5) / total
    f_val = (val_windows + _SPAN_EXTRA + 0.5) / total
    return (f_train, f_val, 1.0 - f_train - f_val)


def plan(workload: str, seconds: int) -> Plan:
    if workload == "toy-train":
        # configs/toy.cfg: 6 epochs of batch 18; one step takes about 0.65 s.
        train = 18 * max(1, round(seconds / 5))
        return Plan(
            config="configs/toy.cfg",
            fractions=_fractions(2000, train, val_windows=36),
            train_windows=train,
            embed_with_walks=True, check_mae_falls=True, check_windows=4,
            setups=5,  # each runs skip-gram for about 6 s
        )
    if workload == "ref228-train":
        # Batch 1 keeps peak RSS near 1.6 GB; a step takes about 1.3 s. Three
        # epochs: the first is warm-up, the other two are timed. The config's
        # lr is for batch 16; scaled linearly to batch 1 it gives a smooth
        # descent. At the full lr, batch-1 steps made the validation MAE
        # after 12 steps differ by up to 2x between seeds.
        train = max(1, round(seconds / 5))
        return Plan(
            config="configs/pemsd7.cfg",
            overrides={"batch_size": "1", "epochs": "3", "lr": "6.25e-05"},
            nodes=228, period=288, steps=288,
            fractions=_fractions(288, train, val_windows=1),
            train_windows=train, check_mae_falls=True,
        )
    if workload == "ref228-infer":
        # One predict call of two windows takes about 0.8 s.
        return Plan(
            config="configs/pemsd7.cfg",
            nodes=228, period=288, steps=576,
            predict_calls=max(2, round(seconds)), predict_batch=2,
            eval_windows=max(2, round(seconds * 0.4)),
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_inputs(p: Plan, seed: int, root: Path, out: Path) -> dict:
    """Generate this workload's input files from ``seed`` into ``out``.

    Returns the paths the worker needs plus a digest of every file, so a
    test can tell that another seed gave other inputs.
    """
    import numpy as np

    from flowcast import context, model, synth
    from flowcast.optim import AdamState

    dataset, graph = synth.make_ring_dataset(
        n_nodes=p.nodes, steps=p.steps, period=p.period, seed=seed
    )
    paths = {k: str(v) for k, v in synth.write_dataset_files(out, dataset, graph).items()}
    if not p.embed_with_walks:
        # Fourier modes of the ring, the same for every seed, so the seed
        # changes the readings' noise (and the checkpoint's weights) only.
        angle = 2 * np.pi * np.outer(np.arange(p.nodes), np.arange(1, 33)) / p.nodes
        paths["embeddings"] = str(out / "embeddings.txt")
        context.save_embeddings(paths["embeddings"], 0.1 * np.hstack([np.cos(angle), np.sin(angle)]))
    if not p.trains:
        # The checkpoint `flowcast eval` would load: fresh weights from the
        # seed, normalization stats from the training span, Adam state.
        cfg = replace(model.load_config(root / p.config), seed=seed)
        prepared = model.prepare_dataset(dataset)
        fresh = model.Forecaster.new(
            cfg, graph, context.load_embeddings(paths["embeddings"], p.nodes)
        )
        fresh.norm = prepared.norm
        paths["checkpoint"] = str(out / "model.ckpt")
        model.save_model(
            paths["checkpoint"], fresh, AdamState.for_params(fresh.params.named())
        )
    digest = hashlib.sha256()
    for key in sorted(paths):
        digest.update(Path(paths[key]).read_bytes())
    return {"paths": paths, "digest": digest.hexdigest()}
