"""The benchmark's tracer wraps library functions where their callers look
them up (``perfbench/tracing.py``); a refactor that drops or bypasses one
of those lookup sites must fail here, not only in the slow benchmark
smoke test."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from flowcast.synth import ring_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Spans one forward_batch plus backward must record: every site the
# forward path goes through.
FORWARD_SPANS = {
    "model.forward",
    "model.context_block",
    "model.transform_layer",
    "context.gru_sequence",
    "context.gru_cell",
    "graph.multi_hop_conv",
    "attention.multi_head_attention",
    "tensor.backward",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves():
    tracing = _tracing()
    for module, attr, _ in tracing.SITES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls, attr, _ in tracing.METHOD_SITES:
        assert callable(getattr(getattr(importlib.import_module(module), cls), attr))
    assert FORWARD_SPANS <= {name for *_, name in tracing.SITES}


def test_forward_and_backward_record_every_forward_site(monkeypatch):
    tracing = _tracing()
    # installing rebinds every site; monkeypatch puts the originals back
    for module, attr, _ in tracing.SITES:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    for module, cls_name, attr, _ in tracing.METHOD_SITES:
        cls = getattr(importlib.import_module(module), cls_name)
        monkeypatch.setattr(cls, attr, cls.__dict__[attr])
    tracer = tracing.Tracer("tracer-sites")
    tracer.install()
    try:
        model = importlib.import_module("flowcast.model")
        tensor = importlib.import_module("flowcast.tensor")
        cfg = model.ModelConfig(
            width=4, heads=2, head_dim=2, hops=1, gru_layers=1, history=2,
            horizon=2, channels=1, slots_per_day=4, seed=3,
        )
        rng = np.random.default_rng(0)
        m = model.Forecaster.new(cfg, ring_graph(3), rng.normal(size=(3, 64)))
        pred = model.forward_batch(
            cfg, m.params, m.ginputs, m.node_emb, rng.normal(size=(1, 2, 3, 1)), [0]
        )
        tensor.backward(tensor.l1_loss(pred, tensor.Tensor(np.zeros(pred.shape))))
    finally:
        tracer.uninstall_gc()
    recorded = {name for name, *_ in tracer.spans}
    assert "graph.build" in recorded
    assert FORWARD_SPANS <= recorded, FORWARD_SPANS - recorded
    # the cell site times the transform rollout's cells, horizon x layers of
    # them, and none of the context layers'
    cells = [span for span in tracer.spans if span[0] == "context.gru_cell"]
    assert len(cells) == cfg.horizon * cfg.gru_layers == 2
    assert {tracer.spans[parent][0] for *_, parent in cells} == {"model.transform_layer"}
