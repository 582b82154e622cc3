"""Synthetic ring-road dataset: graph-diffused sinusoids plus noise.

Small enough to train on a laptop core in seconds, structured enough
(daily period, spatial phase lag, graph coupling) that the model has
something real to learn. Used by the test suite and the `synth` CLI
command.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import Dataset, DatasetMeta, save_readings
from .graph import RoadGraph, row_normalize

__all__ = ["ring_graph", "make_ring_dataset", "write_dataset_files"]


def ring_graph(n_nodes: int = 8) -> RoadGraph:
    """Directed ring: node i feeds node (i+1) mod N."""
    adj = np.zeros((n_nodes, n_nodes))
    adj[np.arange(n_nodes), (np.arange(n_nodes) + 1) % n_nodes] = 1.0
    return RoadGraph(adj)


def make_ring_dataset(
    n_nodes: int = 8,
    steps: int = 2000,
    period: int = 96,
    noise: float = 0.05,
    seed: int = 0,
) -> tuple[Dataset, RoadGraph]:
    """Sinusoidal node signals, phase-lagged around the ring, diffused one
    and two hops downstream, with ``noise`` x signal-std Gaussian noise.
    A non-finite or negative ``noise`` is a ValueError."""
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be a finite number >= 0, got {noise!r}")
    graph = ring_graph(n_nodes)
    rng = np.random.default_rng(seed)

    t = np.arange(steps)[:, None]
    phase = np.arange(n_nodes)[None, :] / n_nodes
    base = np.sin(2 * np.pi * (t / period + phase))

    fwd = row_normalize(graph.adjacency)
    mix = (np.eye(n_nodes) + fwd + fwd @ fwd) / 3.0
    signal = base @ mix.T

    readings = signal + rng.normal(size=signal.shape) * noise * signal.std()
    meta = DatasetMeta(
        n_nodes=n_nodes,
        channels=1,
        window_minutes=1440 // period,
        start_time="2014-01-06",  # a Monday
    )
    return Dataset(readings=readings[:, :, None], meta=meta), graph


def write_dataset_files(out_dir, dataset: Dataset, graph: RoadGraph) -> dict[str, Path]:
    """Materialize readings/adjacency/meta files in the documented formats."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "readings": out_dir / "readings.csv",
        "adjacency": out_dir / "adjacency.csv",
        "meta": out_dir / "readings.csv.meta",
    }
    save_readings(paths["readings"], dataset.readings)
    with open(paths["adjacency"], "w") as fh:
        fh.write(f"N={graph.n_nodes}\n")
        # row-major non-zeros; float(), as numpy 2 reprs a scalar as np.float64(w)
        for src, dst in zip(*np.nonzero(graph.adjacency)):
            fh.write(f"{src},{dst},{float(graph.adjacency[src, dst])!r}\n")
    meta = dataset.meta
    paths["meta"].write_text(
        f"n_nodes = {meta.n_nodes}\n"
        f"channels = {meta.channels}\n"
        f"window_minutes = {meta.window_minutes}\n"
        f"start_time = {meta.start_time}\n"
    )
    return paths
