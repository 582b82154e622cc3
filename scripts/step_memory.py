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

Then a table of the forward graph's arrays per op, the function that built
each node, as ``step_digest.py`` names them: the nodes, the bytes of their
outputs, and the bytes their vjps close over. Each array is counted once,
by its root buffer (the end of its ``.base`` chain), as the output of the
node that made it, or else as saved by the first node, in forward order,
whose vjp reaches it. Arrays that existed before the step (parameters, the
hop transitions, node embeddings and the step's inputs) are left out and
reported as one line, so the table's total is the forward figure's arrays.

Last, a ``predict`` line: tracemalloc's peak during one no-grad
``Forecaster.predict`` of 40 toy or 1 reference window, drawn by
``step_digest.step_inputs``, and maxrss after an
untraced ``predict`` of them, which runs on the fresh model before any
training step, so it reads the inference live set alone.

MB are 10^6 bytes, as in perfbench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from flowcast import tensor as T  # noqa: E402
from flowcast.model import Forecaster, forward_batch  # noqa: E402
from flowcast.optim import zero_grads  # noqa: E402
from step_digest import step_inputs  # noqa: E402

# (name, config, ring nodes, batch, windows predicted), as in step_digest.py
# but for one reference window predicted, a pass's worth
STEPS = {"toy": ("configs/toy.cfg", 8, 18, 40), "ref228": ("configs/pemsd7.cfg", 228, 1, 1)}


def forward_loss(model: Forecaster, xs, target, t0s) -> T.Tensor:
    zero_grads(model.params.named())
    pred = forward_batch(model.cfg, model.params, model.ginputs, model.node_emb, xs, t0s)
    return T.l1_loss(pred, T.Tensor(target), 1.0 / len(xs))


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _arrays(obj, seen: set[int]):
    """Arrays reachable from ``obj`` through closures, lists, tuples, tensors
    and dataclasses, each object visited once over ``seen``."""
    stack = [obj]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, T.Tensor):
            stack.append(obj.data)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj):
            stack.extend(vars(obj).values())


def graph_bytes(loss: T.Tensor, before) -> tuple[dict, int]:
    """Per op: [nodes, output bytes, saved bytes] of the graph under ``loss``,
    each root buffer counted once and those reachable from ``before`` not at
    all; and the bytes left out that way."""
    counted = {id(_root(a)): _root(a).nbytes for a in _arrays(before, set())}
    skipped = sum(counted.values())
    nodes = [n for n in T._topological_order(loss) if n.vjp is not None]
    table: dict[str, list[int]] = {}
    for n in nodes:
        row = table.setdefault(n.vjp.__qualname__.split(".")[0], [0, 0, 0])
        row[0] += 1
        root = _root(n.data)
        if id(root) not in counted:
            counted[id(root)] = row[1] = row[1] + root.nbytes
    for n in nodes:
        row = table[n.vjp.__qualname__.split(".")[0]]
        for a in _arrays(n.vjp, set()):
            root = _root(a)
            if id(root) not in counted:
                counted[id(root)] = root.nbytes
                row[2] += root.nbytes
    return table, skipped


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def predict_peak(model: Forecaster, windows) -> float:
    """tracemalloc's peak during ``model.predict(*windows)``, in MB above
    what was held when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.predict(*windows)
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


def measure(config: str, nodes: int, batch: int, predicted: int, warmup: int, steps: int) -> dict:
    model, inputs, windows = step_inputs(config, nodes, batch, predicted)
    model.predict(*windows)
    predict = {"maxrss": maxrss_mb(), "peak": predict_peak(model, windows)}
    for _ in range(warmup):
        T.backward(forward_loss(model, *inputs))
    before = minor_faults()
    for _ in range(steps):
        T.backward(forward_loss(model, *inputs))
    faults = (minor_faults() - before) / steps
    maxrss = maxrss_mb()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = forward_loss(model, *inputs)
        held = tracemalloc.get_traced_memory()[0] - start
        table, skipped = graph_bytes(loss, (model, inputs))
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start - held
    finally:
        tracemalloc.stop()
    return {
        "forward": held / 1e6, "peak": peak / 1e6, "faults": faults, "maxrss": maxrss,
        "table": table, "skipped": skipped, "predict": predict,
    }


def print_table(table: dict, skipped: int) -> None:
    print(f"  {'op':<22} {'nodes':>5} {'output MB':>10} {'saved MB':>9}")
    total = Counter()
    for op, (count, out, saved) in sorted(table.items()):
        print(f"  {op:<22} {count:>5} {out / 1e6:>10.1f} {saved / 1e6:>9.1f}")
        total.update(nodes=count, out=out, saved=saved)
    print(
        f"  {'all':<22} {total['nodes']:>5} {total['out'] / 1e6:>10.1f} "
        f"{total['saved'] / 1e6:>9.1f}   {(total['out'] + total['saved']) / 1e6:.1f} MB in all"
    )
    print(f"  (held before the step, not counted: {skipped / 1e6:.1f} MB)")


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
        config, nodes, batch, predicted = STEPS[name]
        m = measure(config, nodes, batch, predicted, args.warmup, args.count)
        print(
            f"{name} (batch {batch}): forward {m['forward']:.1f} MB, "
            f"backward peak +{m['peak']:.1f} MB, {m['faults']:.0f} faults/step, "
            f"maxrss {m['maxrss']:.1f} MB"
        )
        print_table(m["table"], m["skipped"])
        print(
            f"{name} predict ({predicted} window{'s' * (predicted > 1)}, no grad): "
            f"peak {m['predict']['peak']:.1f} MB, "
            f"maxrss {m['predict']['maxrss']:.1f} MB"
        )


if __name__ == "__main__":
    main()
