"""Fingerprint one training step and one prediction: sha256 of the
step's predictions and of every parameter gradient, plus the graph's node
count, in all and per op, and sha256 of ``Forecaster.predict``'s output.

Runs one toy step (``configs/toy.cfg`` on the 8-node ring, batch 18) and
one reference step (``configs/pemsd7.cfg`` on a 228-node ring, batch 1):
forward, the training loss as ``_train_step`` builds it (``l1_loss``
scaled by 1/B) and ``backward``, on inputs drawn from a fixed seed. Then
the same model predicts 40 toy or 2 reference windows, also seeded, which
``predict`` runs in passes of ``windows_per_pass`` windows (341 toy, 1
reference). Two checkouts that print the same lines compute the same
step and prediction to the bit. BLAS runs on one thread, because a
product's summation order can depend on the thread count.

    python scripts/step_digest.py               # from a checkout's root
    python scripts/step_digest.py --save a.npz  # also keep the arrays

The per-op lines, ``<step>/nodes/<op> <count>``, count the loss graph's
nodes before ``backward`` by the function that built each one (the first
part of its vjp's ``__qualname__``; ``leaf`` for a node with no vjp), so a
node that only moves data shows by its op's name.

``--save`` writes the predictions and gradients to one ``.npz`` (keys
``<step>/pred``, ``<step>/predict`` and ``<step>/<parameter>``) for
diffing two checkouts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from flowcast import tensor as T  # noqa: E402
from flowcast.context import EMBED_DIM  # noqa: E402
from flowcast.model import Forecaster, forward_batch, load_config  # noqa: E402
from flowcast.synth import ring_graph  # noqa: E402

# (name, config, ring nodes, batch, windows predicted)
STEPS = (("toy", "configs/toy.cfg", 8, 18, 40), ("ref228", "configs/pemsd7.cfg", 228, 1, 2))


def graph_nodes(root: T.Tensor) -> Counter:
    """Tensors reachable from ``root`` through parents, ``root`` included,
    counted by the function that built each (``leaf`` for no vjp)."""
    return Counter(
        node.vjp.__qualname__.split(".")[0] if node.vjp else "leaf"
        for node in T._topological_order(root)
    )


def step_inputs(config: str, nodes: int, batch: int, predicted: int):
    """A fresh model, one batch (windows, targets, starts) and ``predicted``
    windows with their starts, drawn in that order from seed 0."""
    cfg = load_config(REPO / config)
    rng = np.random.default_rng(0)
    model = Forecaster.new(cfg, ring_graph(nodes), rng.normal(size=(nodes, EMBED_DIM)))
    xs = rng.normal(size=(batch, cfg.history, nodes, cfg.channels))
    target = rng.normal(size=(batch, cfg.horizon, nodes, cfg.channels))
    t0s = rng.integers(0, 7 * cfg.slots_per_day, size=batch)
    windows = rng.normal(size=(predicted, cfg.history, nodes, cfg.channels))
    starts = rng.integers(0, 7 * cfg.slots_per_day, size=predicted)
    return model, (xs, target, t0s), (windows, starts)


def run_step(config: str, nodes: int, batch: int, predicted: int) -> tuple[dict, Counter]:
    """Arrays of one train step, keyed ``pred`` and by parameter name, and
    of a ``predict`` of ``predicted`` windows, keyed ``predict``, and the
    loss graph's node count per op."""
    model, (xs, target, t0s), windows = step_inputs(config, nodes, batch, predicted)
    pred = forward_batch(model.cfg, model.params, model.ginputs, model.node_emb, xs, t0s)
    loss = T.l1_loss(pred, T.Tensor(target), 1.0 / batch)
    count = graph_nodes(loss)
    T.backward(loss)
    arrays = {"pred": pred.data}
    arrays.update((name, p.grad) for name, p in model.params.named().items())
    arrays["predict"] = model.predict(*windows)
    return arrays, count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="NPZ", help="write the arrays to this .npz")
    args = parser.parse_args()
    saved = {}
    for step, config, nodes, batch, predicted in STEPS:
        arrays, ops = run_step(config, nodes, batch, predicted)
        count = ops.total()
        print(f"{step}: {count} graph nodes ({count / batch:g} per sample)")
        for op, n in sorted(ops.items()):
            print(f"{step}/nodes/{op} {n}")
        for name, a in arrays.items():
            print(f"{step}/{name} {hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()}")
            saved[f"{step}/{name}"] = a
    if args.save:
        np.savez(args.save, **saved)


if __name__ == "__main__":
    main()
