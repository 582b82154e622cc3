"""Golden equivalence: the batched forward reproduces the per-sample one.

``tests/data/golden.ckpt`` (a :func:`flowcast.checkpoint.save_arrays`
file) was written at commit a39f231, whose ``forward_batch`` built one
graph per sample and returned a list of (T_p, N, C) tensors. With
:func:`golden_case` imported from this file and ``flowcast`` imported from
that commit's ``src/``, it holds:

* ``pred``: ``np.stack`` of the three samples' predictions;
* ``grad.<name>``: every parameter's gradient after one ``backward`` of
  the training objective, the sum of the samples' ``l1_loss`` against
  ``ys`` scaled by 1/3, from fresh (zero) gradients.

The case is small (width 8, 2 heads, 2 hop shells, 2 GRU layers, history
and horizon 3, a 5-node graph, 3 windows with distinct ``t0``) so the file
stays under 100 KB. The weights come from ``init_params(cfg.seed)``, so
the test also pins the parameter names, shapes and init draw order.
"""

from pathlib import Path

import numpy as np

from flowcast import tensor as T
from flowcast.checkpoint import load_arrays
from flowcast.graph import RoadGraph
from flowcast.model import Forecaster, ModelConfig, forward_batch

GOLDEN = Path(__file__).parent / "data" / "golden.ckpt"


def golden_case():
    """The model and one batch: (model, xs, ys, t0s)."""
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=2, gru_layers=2, history=3,
        horizon=3, channels=1, slots_per_day=8, start_weekday=2, seed=5,
    )
    rng = np.random.default_rng(2024)
    adj = (rng.random((5, 5)) < 0.4) * rng.uniform(0.5, 2.0, (5, 5))
    np.fill_diagonal(adj, 0.0)
    model = Forecaster.new(cfg, RoadGraph.from_adjacency(adj), rng.normal(size=(5, 64)) * 0.3)
    xs = rng.normal(size=(3, cfg.history, 5, 1))
    ys = rng.normal(size=(3, cfg.horizon, 5, 1))
    return model, xs, ys, [1, 6, 13]


def test_batched_forward_matches_per_sample_golden():
    golden = load_arrays(GOLDEN)
    m, xs, ys, t0s = golden_case()
    pred = forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, t0s)
    assert np.max(np.abs(pred.data - golden["pred"])) <= 1e-10
    T.backward(T.scale(T.l1_loss(pred, T.Tensor(ys)), 1.0 / len(xs)))
    named = m.params.named()
    assert sorted(f"grad.{name}" for name in named) == sorted(
        key for key in golden if key.startswith("grad.")
    )
    for name, p in named.items():
        assert np.max(np.abs(p.grad - golden[f"grad.{name}"])) <= 1e-10, name
