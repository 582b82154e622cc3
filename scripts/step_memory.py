"""Memory of one training step: the forward graph's held bytes, the
backward pass's peak above them, minor page faults per step and maxrss.

Runs the same two steps as ``step_digest.py``: one toy step
(``configs/toy.cfg`` on the 8-node ring, batch 18) and one reference step
(``configs/pemsd7.cfg`` on a 228-node ring, batch 1), each forward, the
training loss and ``backward`` on inputs drawn from a fixed seed. BLAS
runs on one thread, as in ``step_digest.py``.

    python scripts/step_memory.py               # from a checkout's root
    python scripts/step_memory.py ref228        # one step only

For each step it prints:

- ``forward``: bytes the forward graph and loss hold (tracemalloc).
- ``backward peak``: tracemalloc's peak during ``backward``, above them.
- ``faults/step``: minor page faults per step, over ``--steps`` steps
  after ``--warmup`` steps (getrusage).
- ``maxrss``: the process's peak resident set so far, read before
  tracemalloc starts. It is cumulative, so run one step to read its own.

MB are 10^6 bytes, as in perfbench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from flowcast import tensor as T  # noqa: E402
from flowcast.model import Forecaster, forward_batch, load_config  # noqa: E402
from flowcast.optim import zero_grads  # noqa: E402
from flowcast.synth import ring_graph  # noqa: E402

# (name, config, ring nodes, batch), as in step_digest.py
STEPS = {"toy": ("configs/toy.cfg", 8, 18), "ref228": ("configs/pemsd7.cfg", 228, 1)}


def step_inputs(config: str, nodes: int, batch: int):
    """A fresh model and one batch, drawn as ``step_digest.py`` draws them."""
    cfg = load_config(REPO / config)
    rng = np.random.default_rng(0)
    model = Forecaster.new(cfg, ring_graph(nodes), rng.normal(size=(nodes, 64)))
    xs = rng.normal(size=(batch, cfg.history, nodes, cfg.channels))
    target = rng.normal(size=(batch, cfg.horizon, nodes, cfg.channels))
    t0s = rng.integers(0, 7 * cfg.slots_per_day, size=batch)
    return model, xs, target, t0s


def forward_loss(model: Forecaster, xs, target, t0s) -> T.Tensor:
    zero_grads(model.params.named())
    pred = forward_batch(model.cfg, model.params, model.ginputs, model.node_emb, xs, t0s)
    return T.l1_loss(pred, T.Tensor(target), 1.0 / len(xs))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(config: str, nodes: int, batch: int, warmup: int, steps: int) -> dict:
    model, *inputs = step_inputs(config, nodes, batch)
    for _ in range(warmup):
        T.backward(forward_loss(model, *inputs))
    before = minor_faults()
    for _ in range(steps):
        T.backward(forward_loss(model, *inputs))
    faults = (minor_faults() - before) / steps
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = forward_loss(model, *inputs)
        held = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start - held
    finally:
        tracemalloc.stop()
    return {"forward": held / 1e6, "peak": peak / 1e6, "faults": faults, "maxrss": maxrss}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("steps", nargs="*", help=f"steps to run, of {', '.join(STEPS)} (default: all)")
    parser.add_argument("--warmup", type=int, default=2, help="steps before counting faults")
    parser.add_argument("--steps", dest="count", type=int, default=3, help="steps counted")
    args = parser.parse_args()
    unknown = set(args.steps) - STEPS.keys()
    if unknown:
        parser.error(f"unknown steps {sorted(unknown)}; choose from {', '.join(STEPS)}")
    for name in args.steps or STEPS:
        config, nodes, batch = STEPS[name]
        m = measure(config, nodes, batch, args.warmup, args.count)
        print(
            f"{name} (batch {batch}): forward {m['forward']:.1f} MB, "
            f"backward peak +{m['peak']:.1f} MB, {m['faults']:.0f} faults/step, "
            f"maxrss {m['maxrss']:.1f} MB"
        )


if __name__ == "__main__":
    main()
