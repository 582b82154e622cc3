"""Model assembly: projections, context fusion, transform, full pipeline,
training loop, and checkpoint round trips."""

import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcast import model as model_module
from flowcast import tensor as T
from flowcast.attention import DegenerateAttentionError
from flowcast.checkpoint import CheckpointError, load_arrays, save_arrays
from flowcast.context import GruLayerParams, gru_stack
from flowcast.data import SampleWindow, assign_windows, make_windows
from flowcast.graph import RoadGraph, load_adjacency
from flowcast.model import (
    CSV_HEADER,
    ConfigError,
    ContractError,
    Forecaster,
    GraphInputs,
    ModelConfig,
    TrainingDiverged,
    _attend,
    _fuse,
    context_block,
    evaluate,
    forecast,
    forward_batch,
    init_params,
    load_config,
    load_model,
    prepare_dataset,
    save_config,
    save_model,
    train,
    transform_layer,
    windows_per_pass,
)
from flowcast.optim import AdamState, GradientError, adam_step, zero_grads
from flowcast.synth import make_ring_dataset, ring_graph
from flowcast.tensor import ShapeError, Tensor, backward, l1_loss

import oracles
import ops
from gradcheck import assert_vjp_repeats, grad_close, numeric_grad

TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"
REF_CFG = TOY_CFG.with_name("pemsd7.cfg")


def tiny_cfg(**overrides) -> ModelConfig:
    base = dict(
        width=4, heads=2, head_dim=2, hops=1, gru_layers=1, history=2,
        horizon=2, channels=1, slots_per_day=4, start_weekday=0,
        lr=1e-3, epochs=1, seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def tiny_model():
    cfg = tiny_cfg()
    graph = ring_graph(3)
    node_emb = np.random.default_rng(1).normal(size=(3, 64)) * 0.3
    return Forecaster.new(cfg, graph, node_emb)


def _projected_statics(model, steps_hist, steps_fut, t0=0):
    from flowcast.context import temporal_encoding

    p, cfg = model.params, model.cfg
    emb_proj = ops.add(ops.matmul(Tensor(model.node_emb), p.emb_w), p.emb_b)
    hist = temporal_encoding(t0, steps_hist, cfg.slots_per_day, cfg.start_weekday)
    fut = temporal_encoding(
        t0 + steps_hist, steps_fut, cfg.slots_per_day, cfg.start_weekday
    )
    time_hist = ops.add(ops.matmul(Tensor(hist[:, None, :]), p.time_w), p.time_b)
    time_fut = ops.add(ops.matmul(Tensor(fut[:, None, :]), p.time_w), p.time_b)
    return emb_proj, time_hist, time_fut


# ---------------------------------------------------------------------------
# Configuration

def test_config_rejects_inconsistent_width():
    with pytest.raises(ConfigError, match="width"):
        ModelConfig(width=100, heads=8, head_dim=16)


@pytest.mark.parametrize(
    "sizes",
    [dict(width=0, heads=0, head_dim=16), dict(width=0, heads=8, head_dim=0), dict(hops=0)],
)
def test_config_rejects_nonpositive_counts(sizes):
    with pytest.raises(ConfigError, match=">= 1"):
        ModelConfig(**sizes)


@pytest.mark.parametrize(
    "values, key",
    [
        ({"epochs": 0}, "epochs"),
        ({"gru_layers": 0}, "gru_layers"),
        ({"lr": math.nan}, "lr"),
        ({"lr": math.inf}, "lr"),
        ({"lr_decay_factor": math.nan}, "lr_decay_factor"),
        ({"epochs": 2.5}, "epochs"),
        ({"batch_size": True}, "batch_size"),
        ({"lr_decay_epochs": [1.5]}, "lr_decay_epochs"),
        ({"seed": -1, "width": 8, "heads": 2, "head_dim": 4, "hops": 1}, "seed"),
        ({"lr": 10**400}, "lr"),
        ({"lr_decay_epochs": [-3, 2]}, "lr_decay_epochs"),
        ({"start_weekday": -1}, "start_weekday"),
        ({"start_weekday": 9}, "start_weekday"),
    ],
)
def test_config_rejects_bad_values_naming_the_key(values, key):
    with pytest.raises(ConfigError, match=f"^{key} must"):
        ModelConfig(**values)


def test_config_overrides_are_checked_like_file_values():
    with pytest.raises(ConfigError, match="^epochs must be an integer, got 2.5$"):
        load_config(TOY_CFG, {"epochs": 2.5})
    assert load_config(TOY_CFG, {"epochs": 2, "lr": 1}).epochs == 2


@pytest.mark.parametrize("line", ["lr = nan", "lr = 1e400", "lr_decay_factor = nan", "epochs = 0"])
def test_config_file_rejects_non_finite_and_zero_values(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 1\n{line}\n")
    with pytest.raises(ConfigError, match=f"^{line.split()[0]} must"):
        load_config(path)


def test_config_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"epochs = 2\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"run\.cfg: not UTF-8 text$"):
        load_config(path)


_CONFIG_LINES = st.tuples(
    st.sampled_from([f.name for f in fields(ModelConfig)] + ["", "x"]),
    st.sampled_from([" = ", "=", " "]),
    st.one_of(
        st.sampled_from(["0", "1", "-1", "2.5", "1e400", "nan", "inf", "1,2", "", ","]),
        st.integers(-3, 300).map(str),
        st.text(max_size=5),
    ),
).map("".join)


@given(content=st.one_of(
    st.text(),
    st.binary(),
    st.lists(_CONFIG_LINES, max_size=6).map("\n".join),
))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_config_fuzz_raises_only_config_errors(tmp_path, content):
    path = tmp_path / "run.cfg"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)
    try:
        cfg = load_config(path)
    except ConfigError:
        pass
    else:
        assert isinstance(cfg, ModelConfig) and cfg.epochs >= 1


def test_config_rejects_bad_hop_split():
    with pytest.raises(ConfigError, match="hops"):
        ModelConfig(width=128, heads=8, head_dim=16, hops=7)


def test_config_defaults_match_reference_setup():
    cfg = ModelConfig()
    assert (cfg.width, cfg.heads, cfg.head_dim, cfg.hops, cfg.gru_layers) == (
        128, 8, 16, 8, 2,
    )
    assert (cfg.history, cfg.horizon, cfg.batch_size) == (12, 12, 16)
    assert cfg.lr == 1e-3


def test_config_file_round_trip(tmp_path):
    cfg = ModelConfig(lr_decay_epochs=[25, 35], epochs=40, slots_per_day=96)
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("widht = 128\n")
    with pytest.raises(ConfigError, match="widht"):
        load_config(path)


def test_config_bad_value_names_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 2\nlr = abc\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: .*'lr'"):
        load_config(path)


def test_config_bad_override_value_names_key(tmp_path):
    path = tmp_path / "run.cfg"
    save_config(path, ModelConfig())
    with pytest.raises(ConfigError, match=r"^--set lr: bad value 'abc'$"):
        load_config(path, overrides={"lr": "abc"})
    with pytest.raises(ConfigError, match=r"^--set hops: bad value '1,2'$"):
        load_config(path, overrides={"hops": "1,2"})


def test_config_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    save_config(path, ModelConfig(epochs=40))
    cfg = load_config(path, overrides={"epochs": 2, "seed": "9"})
    assert cfg.epochs == 2 and cfg.seed == 9


# ---------------------------------------------------------------------------
# Projections: forward_batch maps the input and the output as one-stream
# _fuse nodes, ``x @ w + b``

def test_input_projection_ones():
    cfg = tiny_cfg()
    params = init_params(cfg)
    params.in_w.data = np.ones((1, 4))
    params.in_b.data = np.zeros(4)
    out = _fuse(params.in_w, params.in_b, [Tensor(np.ones((2, 3, 1)))])
    assert np.array_equal(out.data, np.ones((2, 3, 4)))


def test_input_projection_zero_weights():
    cfg = tiny_cfg()
    params = init_params(cfg)
    params.in_w.data = np.zeros((1, 4))
    out = _fuse(params.in_w, params.in_b, [Tensor(np.ones((2, 3, 1)))])
    assert not out.data.any()


def test_input_projection_channel_mismatch():
    # forward_batch rejects such a window at entry (see
    # test_entry_rejects_a_window_of_the_wrong_shape); _fuse rejects it too
    params = init_params(tiny_cfg())
    with pytest.raises(ShapeError, match=re.escape("streams [(2, 3, 2)] do not fit weight (1, 4)")):
        _fuse(params.in_w, params.in_b, [Tensor(np.zeros((2, 3, 2)))])


def test_projection_gradients():
    rng = np.random.default_rng(40)
    params = init_params(tiny_cfg())
    x = Tensor(rng.normal(size=(2, 3, 1)))
    c = Tensor(rng.normal(size=(2, 3, 4)))
    backward(ops.sum_(ops.mul(_fuse(params.in_w, params.in_b, [x]), c)))

    def forward():
        return (_fuse(params.in_w, params.in_b, [x]).data * c.data).sum()

    assert grad_close(params.in_w.grad, numeric_grad(forward, params.in_w.data))
    assert grad_close(params.in_b.grad, numeric_grad(forward, params.in_b.data))


def test_output_projection_shape():
    params = init_params(tiny_cfg())
    out = _fuse(params.out_w, params.out_b, [Tensor(np.zeros((2, 3, 4)))])
    assert out.shape == (2, 3, 1)


# ---------------------------------------------------------------------------
# Context block, and the encoder and decoder built on it

def _block(m, name: str, xh: Tensor, emb_proj: Tensor, time_proj: Tensor, h0: list[Tensor]):
    """The encoder or decoder as forward_batch composes it: context_block,
    then self attention with its residual added inside the attention node."""
    block = getattr(m.params, name)
    ctx, finals = context_block(block, xh, emb_proj, time_proj, m.ginputs, h0)
    return _attend(name, ctx, None, block.attn, residual=True), finals


def test_context_block_shape(tiny_model):
    m = tiny_model
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)))
    h0 = [Tensor(np.zeros((3, 4)))]
    tokens, finals = context_block(
        m.params.encoder, xh, emb_proj, time_hist, m.ginputs, h0
    )
    assert tokens.shape == (2, 3, 4)
    assert len(finals) == 1 and finals[0].shape == (3, 4)


def _graph_ops(root: Tensor) -> set[str]:
    """Names of the functions that built the nodes reachable from ``root``."""
    seen, stack, names = set(), [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node.vjp is not None:
            seen.add(id(node))
            names.add(node.vjp.__qualname__.split(".")[0])
            stack.extend(parent for parent, _ in node.parents)
    return names


def test_blocks_add_their_residuals_inside_the_nodes_that_produce_them(tiny_model):
    # an add node would keep the fused or attended array without its residual
    # in the graph, beside the sum; the residual is each node's first input
    m = tiny_model
    statics = [Tensor(t.data) for t in _projected_statics(m, 2, 2)[:2]]
    xh = T.param(np.random.default_rng(4).normal(size=(2, 3, 4)))
    h0 = [Tensor(np.zeros((3, 4)))]
    ctx, _ = context_block(m.params.encoder, xh, *statics, m.ginputs, h0)
    assert _graph_ops(ctx) == {"_fuse", "multi_hop_conv", "gru_stack"}
    assert ctx.vjp.__qualname__.startswith("_fuse.") and ctx.parents[0] == (xh, 0)
    out = _attend("encoder", ctx, None, m.params.encoder.attn, residual=True)
    assert _graph_ops(out) == {"_fuse", "multi_hop_conv", "gru_stack", "multi_head_attention"}
    assert out.vjp.__qualname__.startswith("multi_head_attention.")
    assert out.parents[:2] == ((ctx, 0), (ctx, 1))


def test_context_block_zeroed_fusion_is_residual(tiny_model):
    m = tiny_model
    m.params.encoder.fuse_w.data = np.zeros_like(m.params.encoder.fuse_w.data)
    m.params.encoder.fuse_b.data = np.zeros_like(m.params.encoder.fuse_b.data)
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4)))
    tokens, _ = context_block(
        m.params.encoder, xh, emb_proj, time_hist, m.ginputs,
        [Tensor(np.zeros((3, 4)))],
    )
    assert np.array_equal(tokens.data, xh.data)


def test_context_block_span_mismatch(tiny_model):
    m = tiny_model
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.zeros((3, 3, 4)))  # 3 steps, static context built for 2
    with pytest.raises(ContractError, match="steps"):
        context_block(
            m.params.encoder, xh, emb_proj, time_hist, m.ginputs,
            [Tensor(np.zeros((3, 4)))],
        )


def test_context_block_causality_probe():
    cfg = tiny_cfg(history=4, horizon=4)
    graph = ring_graph(3)
    rng = np.random.default_rng(4)
    m = Forecaster.new(cfg, graph, rng.normal(size=(3, 64)))
    emb_proj, time_hist, _ = _projected_statics(m, 4, 4)
    x = rng.normal(size=(4, 3, 4))
    perturbed = x.copy()
    perturbed[-1] += rng.normal(size=(3, 4))
    h0 = [Tensor(np.zeros((3, 4)))]
    a, _ = context_block(
        m.params.encoder, Tensor(x), emb_proj, time_hist, m.ginputs, h0
    )
    b, _ = context_block(
        m.params.encoder, Tensor(perturbed), emb_proj, time_hist,
        m.ginputs, h0,
    )
    # tokens of earlier steps are untouched: GRU is causal, diffusion is
    # step-local, statics are static
    assert np.array_equal(a.data[:3], b.data[:3])
    assert not np.array_equal(a.data[3:], b.data[3:])


# ---------------------------------------------------------------------------
# Encoder

# The fused context fusion node against the composed chain of add and
# matmul nodes it replaced (tests/oracles.py)

_FUSE_STREAMS = {
    # a context block: features, hop conv and GRU streams, node embeddings, time one-hots
    "block": lambda b, t, n, f: [(b, t, n, f)] * 3 + [(n, f), (b, t, 1, f)],
    # the transform's query and key/value maps
    "transform": lambda b, t, n, f: [(b, t, n, f), (n, f), (b, t, 1, f)],
    # the input and time-slot projections: one stream, narrower than the output
    "input": lambda b, t, n, f: [(b, t, n, 1)],
    "time": lambda b, t, n, f: [(b, t, f + 3)],
}


def _fuse_inputs(rng, kind, batch):
    shapes = _FUSE_STREAMS[kind](batch, 3, 5, 4)
    streams = [T.param(rng.normal(size=s)) for s in shapes]
    w = T.param(rng.uniform(-0.5, 0.5, (sum(s[-1] for s in shapes), 4)))
    b = T.param(rng.normal(size=4))
    return w, b, streams


def _out_and_grads(fn, inputs, c):
    """Output and every input's gradient of sum(fn() * c)."""
    for t in inputs:
        t.grad = None
    out = fn()
    T.backward(ops.sum_(ops.mul(out, c)))
    return out.data, [t.grad for t in inputs]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kind", sorted(_FUSE_STREAMS))
def test_fused_fuse_matches_composed_chain(kind, batch):
    rng = np.random.default_rng(60)
    w, b, streams = _fuse_inputs(rng, kind, batch)
    inputs = [w, b, *streams]
    c = Tensor(rng.normal(size=streams[0].shape[:-1] + b.shape))
    out, grads = _out_and_grads(lambda: model_module._fuse(w, b, streams), inputs, c)
    want, want_grads = _out_and_grads(lambda: oracles.fuse(w, b, streams), inputs, c)
    assert out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-12

    def forward():
        return (model_module._fuse(w, b, streams).data * c.data).sum()

    for t, g in zip(inputs, grads):
        assert grad_close(g, numeric_grad(forward, t.data))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kind", ["block", "transform"])
def test_fused_fuse_with_residual_matches_an_add_after_it_to_the_bit(kind, batch):
    # the residual is the node's first input, so stream 0 sums the add's
    # share before the product's, as the add node after the fusion did
    rng = np.random.default_rng(66)
    w, b, streams = _fuse_inputs(rng, kind, batch)
    inputs = [w, b, *streams]
    c = Tensor(rng.normal(size=streams[0].shape))
    out, grads = _out_and_grads(
        lambda: model_module._fuse(w, b, streams, residual=True), inputs, c
    )
    want, want_grads = _out_and_grads(
        lambda: ops.add(model_module._fuse(w, b, streams), streams[0]), inputs, c
    )
    assert out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        assert got.tobytes() == ref.tobytes()


def test_fused_fuse_vjp_repeats_to_the_byte():
    rng = np.random.default_rng(61)
    w, b, streams = _fuse_inputs(rng, "block", 2)
    streams[3] = Tensor(streams[3].data)  # untracked, so the vjp may skip its share
    out = model_module._fuse(w, b, streams)
    assert_vjp_repeats(out, rng.normal(size=out.shape))


def test_fused_fuse_under_no_grad_builds_no_node():
    w, b, streams = _fuse_inputs(np.random.default_rng(62), "transform", 1)
    with T.no_grad():
        out = model_module._fuse(w, b, streams)
    assert out.parents == () and not out.requires_grad


def test_fused_fuse_backward_keeps_only_leaf_gradients():
    rng = np.random.default_rng(63)
    w, b, streams = _fuse_inputs(rng, "transform", 3)
    h = streams[0]
    for _ in range(4):
        h = model_module._fuse(w, b, [h, *streams[1:]])
    loss = ops.sum_(h)
    tracemalloc.start()
    try:
        T.backward(loss)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= sum(t.grad.nbytes for t in (w, b, *streams)) + 4096


def test_fused_fuse_rejects_streams_that_do_not_fit():
    w, b, streams = _fuse_inputs(np.random.default_rng(64), "transform", 1)
    with pytest.raises(ShapeError, match="do not fit"):
        model_module._fuse(w, b, streams[:2])
    with pytest.raises(ShapeError, match="do not fit"):
        model_module._fuse(w, b, [streams[0], Tensor(np.ones((5, 3))), streams[2]])


def _loss_graph(config: Path, n: int, batch: int) -> list[Tensor]:
    """Every node of a training loss on an n-node ring."""
    cfg = load_config(config)
    rng = np.random.default_rng(65)
    model = Forecaster.new(cfg, ring_graph(n), rng.normal(size=(n, 64)))
    xs = rng.normal(size=(batch, cfg.history, n, cfg.channels))
    pred = forward_batch(cfg, model.params, model.ginputs, model.node_emb, xs, range(batch))
    loss = l1_loss(pred, Tensor(np.zeros(pred.shape)), 1.0 / batch)  # as _train_step builds it
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(parent for parent, _ in node.parents)
    return list(seen.values())


def _loss_graph_nodes_per_sample(config: Path, n: int, batch: int) -> float:
    """Graph nodes of a training loss, per sample, on an n-node ring."""
    return len(_loss_graph(config, n, batch)) / batch


def test_toy_loss_graph_nodes_per_sample():
    # one graph node per context GRU layer, transform rollout, context
    # fusion, linear map, attention call, hop-diffusion conv and L1 loss; the
    # composed forms built 17.6 nodes per sample here, the per-step context
    # GRU 169 per batch, a reshape per time-context consumer 120, a node per
    # rollout cell with attention's token reshapes 116, the residuals as
    # their own add nodes 96, and slices of the projected time one-hots and
    # inputs 91
    assert _loss_graph_nodes_per_sample(TOY_CFG, 8, 18) <= 90 / 18


def test_ref228_loss_graph_nodes_per_sample():
    # 163 parameters and 23 op nodes at batch 1; a node per rollout cell with
    # attention's token reshapes built 224, the residuals as add nodes 192,
    # and slices of the projected time one-hots and inputs 187
    assert _loss_graph_nodes_per_sample(REF_CFG, 228, 1) <= 186


@pytest.mark.parametrize("config, n", [(TOY_CFG, 8), (REF_CFG, 228)], ids=["toy", "ref228"])
def test_the_loss_graphs_only_slices_are_the_encoder_gru_finals(config, n):
    # the time one-hots and the rollout's first input are projected from
    # numpy slices; each encoder GRU layer's final state is a copied slice
    cfg = load_config(config)
    nodes = _loss_graph(config, n, 2)
    slices = [t for t in nodes if t.vjp and t.vjp.__qualname__.startswith("_slice.")]
    layers = [parent for t in slices for parent, _ in t.parents]
    assert len(slices) == len({id(layer) for layer in layers}) == cfg.gru_layers
    for final, layer in zip(slices, layers):
        assert layer.vjp.__qualname__.startswith("gru_stack.")
        assert layer.shape == (2, cfg.history, n, cfg.width)
        assert np.array_equal(final.data, layer.data[:, -1])


@pytest.mark.parametrize("n, k, nnz", [(228, 8, 1824), (8, 2, 16)])
def test_ring_hop_shells_hold_one_pair_per_node_and_shell(n, k, nnz):
    # a directed ring has one node at each hop distance: perfbench reports
    # this count as graph.shell_nnz
    hops = GraphInputs.build(ring_graph(n), k).hops
    assert hops.dtype == bool and hops.shape == (k, n, n)
    assert np.count_nonzero(hops) == nnz


def test_encoder_shapes_and_determinism(tiny_model):
    m = tiny_model
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4)))
    h0 = [Tensor(np.zeros((3, 4)))]
    enc1, finals1 = _block(m, "encoder", xh, emb_proj, time_hist, h0)
    enc2, _ = _block(m, "encoder", xh, emb_proj, time_hist, h0)
    assert enc1.shape == (2, 3, 4)
    assert len(finals1) == 1
    assert np.array_equal(enc1.data, enc2.data)


def test_encoder_gradient_coverage(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(6)
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = _fuse(m.params.in_w, m.params.in_b, [Tensor(rng.normal(size=(2, 3, 1)))])
    h0 = [Tensor(np.zeros((3, 4)))]
    enc, _ = _block(m, "encoder", xh, emb_proj, time_hist, h0)
    backward(ops.sum_(ops.mul(enc, Tensor(rng.normal(size=enc.shape)))))
    for name, p in m.params.encoder.named("encoder").items():
        assert p.grad is not None and np.any(p.grad != 0), f"dead parameter {name}"


# ---------------------------------------------------------------------------
# Transform layer

def test_transform_output_shape(tiny_model):
    # the rollout covers the steps of time_fut: 3 here, one more than the
    # config's horizon
    m = tiny_model
    rng = np.random.default_rng(7)
    emb_proj, _, time_fut = _projected_statics(m, 2, 3)
    kv = Tensor(rng.normal(size=(2, 3, 4)))
    finals = [Tensor(rng.normal(size=(3, 4)))]
    out = transform_layer(
        m.params.transform, kv, finals, Tensor(rng.normal(size=(1, 3, 4))), emb_proj, time_fut
    )
    assert out.shape == (3, 3, 4)


def test_transform_convexity_collapse():
    # single head, identity output map, constant key/value rows: every
    # output row must equal that value row
    cfg = tiny_cfg(heads=1, head_dim=4)
    graph = ring_graph(3)
    rng = np.random.default_rng(8)
    m = Forecaster.new(cfg, graph, rng.normal(size=(3, 64)))
    tp = m.params.transform
    tp.attn.w_o.data = np.eye(4)
    row = rng.normal(size=4)
    emb_proj, _, time_fut = _projected_statics(m, 2, 2)
    out = transform_layer(
        tp, Tensor(np.broadcast_to(row, (2, 3, 4))),
        [Tensor(rng.normal(size=(3, 4)))], Tensor(rng.normal(size=(1, 3, 4))),
        emb_proj, time_fut,
    )
    expected_value_row = row @ tp.attn.w_v[0].data
    assert np.max(np.abs(out.data - expected_value_row)) < 1e-10


def test_transform_global_receptive_field(tiny_model):
    # every encoder token reaches every output through the fused keys and values
    m = tiny_model
    tp = m.params.transform
    rng = np.random.default_rng(9)
    emb_proj, time_hist, time_fut = _projected_statics(m, 2, 2)
    finals = [Tensor(rng.normal(size=(3, 4)))]
    x_last = Tensor(rng.normal(size=(1, 3, 4)))
    enc_tokens = rng.normal(size=(2, 3, 4))

    def run(enc: np.ndarray) -> np.ndarray:
        kv = _fuse(tp.kv_fuse_w, tp.kv_fuse_b, [Tensor(enc), emb_proj, time_hist])
        return transform_layer(tp, kv, finals, x_last, emb_proj, time_fut).data

    base = run(enc_tokens)
    for position in np.ndindex(2, 3):
        poked = enc_tokens.copy()
        poked[position] += 0.37
        assert not np.array_equal(run(poked), base), position


# ---------------------------------------------------------------------------
# The transform rollout as one node, against the per-step form it replaced
# (tests/oracles.py)

def _rollout_case(rng, n_layers, lead, f=3, n=2, t_x=1):
    layers = [
        model_module._gru_layer(lambda s: T.param(rng.uniform(-0.5, 0.5, s)), f)
        for _ in range(n_layers)
    ]
    x_last = T.param(rng.normal(size=lead + (t_x, n, f)))
    h0 = [T.param(rng.normal(size=lead + (n, f))) for _ in layers]
    return x_last, h0, layers


def _rollout_inputs(x_last, h0, layers):
    return [x_last, *h0, *(p for layer in layers for p in layer.named("gru").values())]


@pytest.mark.parametrize("untracked", [None, "x_last", "h0", *GruLayerParams.__dataclass_fields__])
@pytest.mark.parametrize("lead", [(), (2,), (2, 2)], ids=["no_batch", "batch", "two_batch_axes"])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_rollout_node_matches_the_per_step_form_to_the_byte(n_layers, lead, untracked):
    # from one step, as the transform runs it, and from two, where layer 0
    # switches from reading x to reading the fed-back top state at step 2
    for t_x in (1, 2):
        rng = np.random.default_rng(66)
        x_last, h0, layers = _rollout_case(rng, n_layers, lead, t_x=t_x)
        if untracked == "x_last":
            x_last = Tensor(x_last.data)
        elif untracked == "h0":
            h0[-1] = Tensor(h0[-1].data)
        elif untracked is not None:
            setattr(layers[0], untracked, Tensor(getattr(layers[0], untracked).data))
        inputs = _rollout_inputs(x_last, h0, layers)
        c = Tensor(rng.normal(size=lead + (4,) + x_last.shape[-2:]))
        out, grads = _out_and_grads(lambda: gru_stack(x_last, h0, layers, 4), inputs, c)
        want, want_grads = _out_and_grads(
            lambda: oracles.gru_stack(x_last, h0, layers, 4), inputs, c
        )
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        for got, ref in zip(grads, want_grads):
            if ref is None:
                assert got is None
            else:
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("untracked", [None, "x", "h0", "w_xu"])
def test_stacked_layers_over_a_sequence_match_the_per_step_form_to_the_byte(untracked):
    # gru_sequence gives the node one layer at a time; two layers over a
    # sequence take each layer's state as the next one's input, as the rollout does
    rng = np.random.default_rng(71)
    _, h0, layers = _rollout_case(rng, 2, (2,))
    x = T.param(rng.normal(size=(2, 5) + h0[0].shape[-2:]))
    if untracked == "x":
        x = Tensor(x.data)
    elif untracked == "h0":
        h0[0] = Tensor(h0[0].data)
    elif untracked is not None:
        setattr(layers[1], untracked, Tensor(getattr(layers[1], untracked).data))
    inputs = _rollout_inputs(x, h0, layers)
    c = Tensor(rng.normal(size=x.shape))
    out, grads = _out_and_grads(lambda: gru_stack(x, h0, layers), inputs, c)
    want, want_grads = _out_and_grads(lambda: oracles.gru_stack(x, h0, layers), inputs, c)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        if ref is None:
            assert got is None
        else:
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "case", ["no_layers", "fewer_states", "other_shape", "fewer_steps_than_input", "rank_2_input"]
)
def test_gru_stack_rejects_states_that_do_not_fit_its_input(case):
    x_last, h0, layers = _rollout_case(np.random.default_rng(72), 2, (2,))
    if case == "no_layers":
        h0, layers = [], []
    elif case == "fewer_states":
        h0 = h0[:1]
    elif case == "other_shape":
        h0[1] = Tensor(np.zeros(h0[1].shape[1:]))
    elif case == "fewer_steps_than_input":
        x_last = Tensor(np.zeros((2, 4) + x_last.shape[-2:]))  # 4 steps given, 3 run
    else:  # one (N, F) step, with states of its shape
        x_last, h0 = Tensor(x_last.data[0, 0]), [Tensor(h.data[0]) for h in h0]
    with pytest.raises(ShapeError, match="^gru_stack: input .* vs hidden"):
        gru_stack(x_last, h0, layers, 3)


def test_rollout_node_keeps_its_inputs_as_its_only_parents():
    # the cells' own nodes never join the graph
    x_last, h0, layers = _rollout_case(np.random.default_rng(67), 2, (2,))
    out = gru_stack(x_last, h0, layers, 3)
    inputs = _rollout_inputs(x_last, h0, layers)
    assert out.parents == tuple((t, i) for i, t in enumerate(inputs))


@pytest.mark.parametrize("n_layers", [1, 2])
def test_rollout_vjp_repeats_to_the_byte(n_layers):
    rng = np.random.default_rng(68)
    x_last, h0, layers = _rollout_case(rng, n_layers, (2,))
    layers[-1].w_hu = Tensor(layers[-1].w_hu.data)  # untracked, so the vjp may skip its share
    out = gru_stack(x_last, h0, layers, 3)
    assert_vjp_repeats(out, rng.normal(size=out.shape))


@pytest.mark.parametrize("n_layers", [1, 2])
def test_rollout_gradients_match_finite_differences(n_layers):
    rng = np.random.default_rng(69)
    x_last, h0, layers = _rollout_case(rng, n_layers, (), f=2)
    inputs = _rollout_inputs(x_last, h0, layers)
    c = rng.normal(size=(3,) + x_last.shape[-2:])
    T.backward(ops.sum_(ops.mul(gru_stack(x_last, h0, layers, 3), Tensor(c))))

    def forward():
        return (gru_stack(x_last, h0, layers, 3).data * c).sum()

    for t in inputs:
        assert grad_close(t.grad, numeric_grad(forward, t.data))


def test_no_grad_rollout_builds_no_node_and_holds_no_more_than_the_per_step_form():
    # the reference config's rollout on 228 nodes, as no-grad predict runs it
    rng = np.random.default_rng(70)
    x_last, h0, layers = _rollout_case(rng, 2, (1,), f=128, n=228)
    held = []  # (bytes held by the result, peak bytes) of each form
    for run in (gru_stack, oracles.gru_stack):
        with T.no_grad():
            tracemalloc.start()
            try:
                out = run(x_last, h0, layers, 12)
                held.append(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
        assert out.parents == () and not out.requires_grad
        del out
    (node_held, node_peak), (per_step_held, per_step_peak) = held
    assert node_held <= per_step_held and node_peak <= per_step_peak


# ---------------------------------------------------------------------------
# Decoder

def test_decoder_shape(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(10)
    emb_proj, _, time_fut = _projected_statics(m, 2, 2)
    out, finals = _block(
        m, "decoder", Tensor(rng.normal(size=(2, 3, 4))), emb_proj, time_fut,
        [Tensor(np.zeros((3, 4)))],
    )
    assert out.shape == (2, 3, 4) and [h.shape for h in finals] == [(3, 4)]


def test_decoder_zeroed_attention_reduces_to_context_block(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(11)
    m.params.decoder.attn.w_o.data = np.zeros((4, 4))
    emb_proj, _, time_fut = _projected_statics(m, 2, 2)
    dec_tokens = Tensor(rng.normal(size=(2, 3, 4)))
    finals = [Tensor(rng.normal(size=(3, 4)))]
    out, _ = _block(m, "decoder", dec_tokens, emb_proj, time_fut, finals)
    ctx, _ = context_block(
        m.params.decoder, dec_tokens,
        emb_proj, time_fut, m.ginputs, finals,
    )
    assert np.array_equal(out.data, ctx.data)


# ---------------------------------------------------------------------------
# Full pipeline

def test_forward_shapes_and_identical_samples(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(12)
    x = rng.normal(size=(m.cfg.history, 3, 1))
    xs = np.stack([x, x, x + 1.0])
    preds = m.predict(xs, [0, 0, 0])
    assert preds.shape == (3, m.cfg.horizon, 3, 1)
    assert np.array_equal(preds[0], preds[1])
    assert not np.array_equal(preds[0], preds[2])


def test_forward_batch_equals_single_window_calls(tiny_model):
    m = tiny_model
    xs = np.random.default_rng(17).normal(size=(3, m.cfg.history, 3, 1))
    t0s = [0, 5, 11]  # distinct slots of day and weekdays
    batched = forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, t0s)
    assert batched.shape == (3, m.cfg.horizon, 3, 1)
    for b in range(3):
        one = forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs[b : b + 1], t0s[b : b + 1])
        assert np.max(np.abs(batched.data[b] - one.data[0])) <= 1e-12


def test_forward_rejects_non_finite_sample(tiny_model):
    m = tiny_model
    xs = np.zeros((2, m.cfg.history, 3, 1))
    xs[1, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="sample 1"):
        forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, [0, 0])


@pytest.mark.parametrize("t0s", [[5], [5, 5, 5, 5]])
def test_forward_batch_rejects_a_start_per_window_mismatch(tiny_model, t0s):
    # a length-1 t0s used to broadcast over the whole batch without a word
    m = tiny_model
    xs = np.zeros((3, m.cfg.history, 3, 1))
    with pytest.raises(ContractError, match=f"^t0s has length {len(t0s)} for 3 windows"):
        forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, t0s)


def test_predict_rejects_a_start_per_window_mismatch(tiny_model):
    xs = np.zeros((3, tiny_model.cfg.history, 3, 1))
    with pytest.raises(ContractError, match="^t0s has length 1 for 3 windows"):
        tiny_model.predict(xs, [5])


@pytest.mark.parametrize("entry", ["forward_batch", "predict"])
@pytest.mark.parametrize(
    "window", [(3, 3, 1), (2, 4, 1), (2, 3, 2)], ids=["history", "nodes", "channels"]
)
def test_entry_rejects_a_window_of_the_wrong_shape(tiny_model, window, entry):
    # rejected before any layer runs, naming both shapes
    m = tiny_model
    xs = np.zeros((2, *window))
    run = {
        "forward_batch": lambda: forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, [0, 0]),
        "predict": lambda: m.predict(xs, [0, 0]),
    }[entry]
    expected = f"windows are {window}; need (history, nodes, channels) (2, 3, 1)"
    with pytest.raises(ContractError, match=f"^{re.escape(expected)}$"):
        run()


@pytest.mark.parametrize(
    "table, message",
    [
        (np.zeros((5, 64)), r"^node embeddings are \(5, 64\); need \(3, 64\)$"),
        (np.zeros((3, 32)), r"^node embeddings are \(3, 32\); need \(3, 64\)$"),
        (np.full((3, 64), np.nan), "^node embeddings are not all finite$"),
    ],
    ids=["nodes", "width", "nan"],
)
def test_new_rejects_bad_node_embeddings(table, message):
    # unchecked, each table would fail only in the first predict, the NaN
    # table as a degenerate attention normalizer
    with pytest.raises(ContractError, match=message):
        Forecaster.new(tiny_cfg(), ring_graph(3), table)


def test_train_rejects_bad_node_embeddings_before_training():
    cfg, prepared, graph, node_emb = _prepared_ring(steps=120)
    with pytest.raises(ContractError, match="node embeddings are"):
        train(cfg, prepared, graph, node_emb[:, :32], mask_eps=1e-6)


def test_forward_batch_rejects_no_windows(tiny_model):
    m = tiny_model
    with pytest.raises(ContractError, match="^no windows given$"):
        forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, np.zeros((0, 2, 3, 1)), [])


def test_predict_rejects_no_windows(tiny_model):
    with pytest.raises(ContractError, match="^no windows given$"):
        tiny_model.predict(np.zeros((0, tiny_model.cfg.history, 3, 1)), [])


def test_forecast_rejects_no_windows(tiny_model):
    tiny_model.norm = (0.0, 1.0)
    with pytest.raises(ContractError, match="^no windows given$"):
        forecast(tiny_model, [])


def test_degenerate_attention_names_block_and_head(tiny_model):
    m = tiny_model
    m.params.decoder.attn.w_q[1].data[:] = np.nan  # only decoder head 1 degenerates
    xs = np.random.default_rng(23).normal(size=(2, m.cfg.history, 3, 1))
    with pytest.raises(
        DegenerateAttentionError, match=r"^decoder head 1: .* at sample 0, query row 0$"
    ) as info:
        forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, [0, 0])
    assert isinstance(info.value.__cause__, DegenerateAttentionError)
    assert str(info.value.__cause__).startswith("head 1: ")


def test_forward_deterministic_across_fresh_builds():
    cfg = tiny_cfg()
    graph = ring_graph(3)
    node_emb = np.random.default_rng(1).normal(size=(3, 64))
    x = np.random.default_rng(2).normal(size=(cfg.history, 3, 1))
    a = Forecaster.new(cfg, graph, node_emb).predict(x[None], [4])
    b = Forecaster.new(cfg, graph, node_emb).predict(x[None], [4])
    assert np.array_equal(a, b)


def test_node_permutation_consistency():
    cfg = tiny_cfg(hops=2, history=3, horizon=3)
    n = 5
    rng = np.random.default_rng(13)
    adj = (rng.random((n, n)) < 0.4).astype(float) * rng.uniform(0.5, 2, (n, n))
    np.fill_diagonal(adj, 0)
    graph = RoadGraph(adj)
    node_emb = rng.normal(size=(n, 64))
    x = rng.normal(size=(cfg.history, n, 1))

    m = Forecaster.new(cfg, graph, node_emb)
    base = m.predict(x[None], [2])[0]

    perm = rng.permutation(n)
    p_mat = np.eye(n)[perm]
    graph_p = RoadGraph(p_mat @ adj @ p_mat.T)
    m_p = Forecaster(
        cfg=cfg, params=m.params, ginputs=GraphInputs.build(graph_p, cfg.hops),
        node_emb=node_emb[perm],
    )
    permuted = m_p.predict((x[:, perm])[None], [2])[0]
    assert np.max(np.abs(permuted - base[:, perm])) < 1e-8


def test_single_shot_inference_is_pointwise_on_features(tiny_model):
    # all horizon steps come from one decoder pass; the output projection
    # is a per-token map, so projecting step slices independently must
    # reproduce the full prediction (no output feeds back anywhere)
    m = tiny_model
    rng = np.random.default_rng(14)
    x = rng.normal(size=(m.cfg.history, 3, 1))
    full = m.predict(x[None], [0])[0]
    with T.no_grad():
        p = m.params
        emb_proj = ops.add(ops.matmul(Tensor(m.node_emb), p.emb_w), p.emb_b)
        from flowcast.context import temporal_encoding

        hist = temporal_encoding(0, m.cfg.history, m.cfg.slots_per_day, 0)
        fut = temporal_encoding(
            m.cfg.history, m.cfg.horizon, m.cfg.slots_per_day, 0
        )
        time_hist = ops.add(ops.matmul(Tensor(hist[:, None, :]), p.time_w), p.time_b)
        time_fut = ops.add(ops.matmul(Tensor(fut[:, None, :]), p.time_w), p.time_b)
        xh = _fuse(p.in_w, p.in_b, [Tensor(x)])
        h0 = [Tensor(np.zeros((3, 4)))]
        enc, finals = _block(m, "encoder", xh, emb_proj, time_hist, h0)
        tp = p.transform
        kv = _fuse(tp.kv_fuse_w, tp.kv_fuse_b, [enc, emb_proj, time_hist])
        x_last = T._slice(xh, np.s_[m.cfg.history - 1 :])
        dec_in = transform_layer(tp, kv, finals, x_last, emb_proj, time_fut)
        feats, _ = _block(m, "decoder", dec_in, emb_proj, time_fut, finals)
        for t in range(m.cfg.horizon):
            step = ops.add(ops.matmul(T._slice(feats, t), p.out_w), p.out_b)
            assert np.array_equal(step.data, full[t])


def test_full_model_gradient_check(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(15)
    xs = rng.uniform(-1, 1, (1, 2, 3, 1))
    pred = forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, [5])
    target = Tensor(pred.data - rng.uniform(0.5, 1.5, pred.data.shape))
    backward(l1_loss(forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, [5]), target))

    def loss_value():
        out = forward_batch(m.cfg, m.params, m.ginputs, m.node_emb, xs, [5])
        return float(np.abs(out.data - target.data).sum())

    named = m.params.named()
    # spot-check one parameter from every structural group; the acceptance
    # suite sweeps all of them
    spots = [
        "input.w", "output.b", "node_emb.w", "time_enc.w",
        "encoder.gru0.w_hh", "encoder.hop0.w", "encoder.fuse.w",
        "encoder.attn.h0.w_q", "transform.gru0.w_xh", "transform.q_fuse.w",
        "transform.attn.h1.w_k", "decoder.gru0.w_hr", "decoder.hop_out",
        "decoder.attn.w_o", "decoder.fuse.b",
    ]
    for name in spots:
        p = named[name]
        assert p.grad is not None, name
        assert grad_close(p.grad, numeric_grad(loss_value, p.data)), name


# ---------------------------------------------------------------------------
# Training

def _prepared_ring(steps=400, **cfg_overrides):
    cfg = load_config(TOY_CFG, cfg_overrides)
    ds, graph = make_ring_dataset(steps=steps)
    node_emb = np.random.default_rng(0).normal(size=(graph.n_nodes, 64)) * 0.2
    return cfg, prepare_dataset(ds), graph, node_emb


def test_one_epoch_decreases_training_loss():
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=1, batch_size=16)
    windows = make_windows(prepared.readings, cfg.history, cfg.horizon)
    idx = assign_windows(windows, prepared.splits)["train"]
    subset = [windows[i] for i in idx]
    xs = np.stack([w.x for w in subset])
    t0s = [w.t0 for w in subset]
    truth = np.stack([w.y for w in subset])

    before_model = Forecaster.new(cfg, graph, node_emb)
    before = float(np.mean(np.abs(before_model.predict(xs, t0s) - truth)))
    model, history = train(cfg, prepared, graph, node_emb, mask_eps=1e-6)
    after = float(np.mean(np.abs(model.predict(xs, t0s) - truth)))
    assert after < before
    assert any(row.split == "train" for row in history)


def test_training_logs_and_csv_format():
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=2, batch_size=32)
    _, history = train(cfg, prepared, graph, node_emb, mask_eps=1e-6)
    assert CSV_HEADER == "epoch,split,mae,rmse,mape,lr,seconds"
    row = history[0].csv_row()
    assert row.startswith("0,train,")
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    epochs_seen = {r.epoch for r in history}
    assert epochs_seen == {0, 1}


def test_training_applies_lr_schedule():
    cfg, prepared, graph, node_emb = _prepared_ring(
        epochs=3, batch_size=64, lr=1e-2, lr_decay_epochs=[1, 2],
        lr_decay_factor=0.1,
    )
    _, history = train(cfg, prepared, graph, node_emb, mask_eps=1e-6)
    lrs = {row.epoch: row.lr for row in history if row.split == "train"}
    assert lrs[0] == pytest.approx(1e-2)
    assert lrs[1] == pytest.approx(1e-3)
    assert lrs[2] == pytest.approx(1e-4)


@pytest.mark.parametrize("mask_eps", [math.nan, math.inf, 0.0, -1.0])
def test_train_rejects_a_mask_eps_that_is_not_finite_and_above_0(tmp_path, mask_eps, monkeypatch):
    cfg, prepared, graph, node_emb = _prepared_ring(steps=120, epochs=1, batch_size=64)
    monkeypatch.setattr(model_module, "_train_step", lambda *args, **kwargs: pytest.fail(
        "train stepped before checking mask_eps"
    ))
    with pytest.raises(ValueError, match=r"^mask_eps: .* is not a finite value above 0$"):
        train(cfg, prepared, graph, node_emb, tmp_path / "model.ckpt", mask_eps=mask_eps)
    assert not (tmp_path / "model.ckpt").exists()


def _train_peak_bytes(epochs: int) -> int:
    """tracemalloc peak of ``train`` taking one step per epoch."""
    cfg, prepared, graph, node_emb = _prepared_ring(steps=120, epochs=epochs, batch_size=64)
    tracemalloc.start()
    try:
        train(cfg, prepared, graph, node_emb, mask_eps=1e-6)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_holds_one_step_graph_at_a_time():
    # a step's graph must be freed before the next step builds its own, or
    # the peak holds two graphs from the second step on
    one, three = _train_peak_bytes(1), _train_peak_bytes(3)
    assert three <= 1.25 * one, (one, three)


def test_ref228_backward_peaks_within_15_mb_of_the_forward_graph():
    # backward frees each node's saved arrays once its vjp has run; keeping
    # every node to the end of the pass peaked 30.7 MB above the 167.6 MB
    # forward graph of this reference-config batch-1 step
    cfg = load_config(REF_CFG)
    rng = np.random.default_rng(0)
    model = Forecaster.new(cfg, ring_graph(228), rng.normal(size=(228, 64)))
    xs = rng.normal(size=(1, cfg.history, 228, cfg.channels))
    target = Tensor(rng.normal(size=(1, cfg.horizon, 228, cfg.channels)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pred = forward_batch(cfg, model.params, model.ginputs, model.node_emb, xs, [5])
        loss = l1_loss(pred, target)
        held = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert held > 100e6  # the graph this bound is about was built
    assert peak - held <= 15e6, (held / 1e6, (peak - held) / 1e6)


@pytest.fixture(scope="module")
def ref228_step_bytes():
    """Bytes a reference-config batch-1 step's forward graph and loss hold,
    and the step's peak over forward and backward, both above what was held
    before the forward (tracemalloc)."""
    cfg = load_config(REF_CFG)
    rng = np.random.default_rng(0)
    model = Forecaster.new(cfg, ring_graph(228), rng.normal(size=(228, 64)))
    xs = rng.normal(size=(1, cfg.history, 228, cfg.channels))
    target = Tensor(rng.normal(size=(1, cfg.horizon, 228, cfg.channels)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = l1_loss(forward_batch(cfg, model.params, model.ginputs, model.node_emb, xs, [5]), target)
        held = tracemalloc.get_traced_memory()[0] - start
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return held, peak


def test_ref228_forward_graph_holds_at_most_105_mb(ref228_step_bytes):
    # each node keeps only what its vjp reads: the GRU cells no R * H_prev,
    # attention nothing but its output, and no add node a residual's
    # operands; with those the graph held 164.8 MB, and 128.3 MB with each
    # attention head's phi(q), phi(k), v, summary, normalizer and denominators
    held, _ = ref228_step_bytes
    assert 100e6 < held <= 105e6, held / 1e6


def test_ref228_step_peaks_at_most_120_mb(ref228_step_bytes):
    # forward graph plus backward's peak above it; 178.0 MB with the arrays
    # above but the attention heads', and a node's output kept through its
    # own vjp; 140.7 MB with the attention heads' arrays
    _, peak = ref228_step_bytes
    assert peak <= 120e6, peak / 1e6


# ---------------------------------------------------------------------------
# Window budget: predict in chunks, training steps in micro-batches

def test_windows_per_pass_of_the_toy_and_reference_configs():
    # a window counts max(history, horizon) x nodes x width entries
    assert windows_per_pass(load_config(TOY_CFG), 8) == 2**19 // (12 * 8 * 16) == 341
    assert windows_per_pass(load_config(REF_CFG), 228) == 1
    assert windows_per_pass(load_config(REF_CFG), 10_000) == 1


def _counting(monkeypatch, name: str) -> list:
    """Count calls to ``flowcast.model``'s ``name``, which still runs."""
    calls, fn = [], getattr(model_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(model_module, name, counted)
    return calls


def _model_and_windows(config: Path, nodes: int, n: int, seed: int):
    """A fresh model of ``config`` on a ring of ``nodes`` and ``n`` seeded windows."""
    cfg = load_config(config)
    rng = np.random.default_rng(seed)
    model = Forecaster.new(cfg, ring_graph(nodes), rng.normal(size=(nodes, 64)) * 0.2)
    windows = [
        SampleWindow(
            x=rng.normal(size=(cfg.history, nodes, 1)), y=rng.normal(size=(cfg.horizon, nodes, 1)),
            t0=int(rng.integers(0, 7 * cfg.slots_per_day)),
        )
        for _ in range(n)
    ]
    return model, windows


@pytest.mark.parametrize("chunk", [1, 3, 7, None])
def test_chunked_predict_is_byte_equal_to_per_window_predict(monkeypatch, chunk):
    # 17 windows leave a partial last chunk of 3 and of 7; None is the
    # default budget, which takes all 17 in one pass
    model, windows = _model_and_windows(TOY_CFG, 8, 17, seed=71)
    cfg = model.cfg
    xs, t0s = np.stack([w.x for w in windows]), [w.t0 for w in windows]
    per_window_entries = max(cfg.history, cfg.horizon) * 8 * cfg.width
    monkeypatch.setattr(model_module, "WINDOW_BUDGET", per_window_entries)
    per_window = model.predict(xs, t0s)
    monkeypatch.undo()
    if chunk is not None:
        monkeypatch.setattr(model_module, "WINDOW_BUDGET", chunk * per_window_entries)
    passes = _counting(monkeypatch, "forward_batch")
    chunked = model.predict(xs, t0s)
    size = chunk or 17
    assert [len(args[4]) for args in passes] == [min(size, 17 - lo) for lo in range(0, 17, size)]
    assert chunked.tobytes() == per_window.tobytes()


def _step(monkeypatch, windows_budget, batch_seed: int):
    """A toy ``_train_step`` on a batch of 6; returns its loss, the model
    and the counted forward_batch, zero_grads and adam_step calls."""
    model, windows = _model_and_windows(TOY_CFG, 8, 6, seed=batch_seed)
    if windows_budget is not None:
        monkeypatch.setattr(model_module, "WINDOW_BUDGET", windows_budget)
    calls = {name: _counting(monkeypatch, name) for name in ("forward_batch", "zero_grads", "adam_step")}
    params = model.params.named()
    state = AdamState.for_params(params)
    try:
        loss = model_module._train_step(model, params, state, 1e-3, windows)
    finally:
        monkeypatch.undo()
    return loss, model, {name: len(c) for name, c in calls.items()}


def test_micro_batched_step_matches_the_whole_batch_step(monkeypatch):
    whole_loss, whole, whole_calls = _step(monkeypatch, None, batch_seed=72)
    micro_loss, micro, micro_calls = _step(monkeypatch, 1, batch_seed=72)
    assert whole_calls == {"forward_batch": 1, "zero_grads": 1, "adam_step": 1}
    assert micro_calls == {"forward_batch": 6, "zero_grads": 1, "adam_step": 1}
    assert abs(micro_loss - whole_loss) <= 1e-12
    for (name, w), m in zip(whole.params.named().items(), micro.params.named().values()):
        assert np.max(np.abs(m.grad - w.grad)) <= 1e-12 * np.max(np.abs(w.grad)), name


def test_non_finite_loss_in_a_later_micro_batch_leaves_the_model_untouched(monkeypatch):
    model, windows = _model_and_windows(TOY_CFG, 8, 6, seed=73)
    windows[-1].y[0, 0, 0] = np.inf  # only the last micro-batch's loss is non-finite
    params = model.params.named()
    state = AdamState.for_params(params)
    before = {name: p.data.copy() for name, p in params.items()}
    monkeypatch.setattr(model_module, "WINDOW_BUDGET", 1)
    passes = _counting(monkeypatch, "forward_batch")
    steps = _counting(monkeypatch, "adam_step")
    with pytest.raises(FloatingPointError, match="non-finite"):
        model_module._train_step(model, params, state, 1e-3, windows)
    assert len(passes) == 6 and not steps
    assert state.step == 0
    for name, p in params.items():
        assert np.array_equal(p.data, before[name]), name
        assert not state.m[name].any() and not state.v[name].any(), name


def _traced_peak(run) -> int:
    """tracemalloc peak of ``run()`` above what was held when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_ref228_batch_4_step_peaks_within_1_3x_of_a_batch_1_step():
    # the default budget runs the reference config one window a pass, so a
    # batch holds one window's graph at a time
    model, windows = _model_and_windows(REF_CFG, 228, 4, seed=74)
    params = model.params.named()
    state = AdamState.for_params(params)
    peaks = [
        _traced_peak(lambda: model_module._train_step(model, params, state, 1e-3, windows[:b]))
        for b in (1, 4)
    ]
    assert peaks[0] > 100e6  # the graph this bound is about was built
    assert peaks[1] <= 1.3 * peaks[0], [p / 1e6 for p in peaks]


def test_ref228_predict_of_two_windows_peaks_as_one_window():
    # a budget that put two reference windows in one pass would double the peak
    model, windows = _model_and_windows(REF_CFG, 228, 2, seed=74)
    xs, t0s = np.stack([w.x for w in windows]), [w.t0 for w in windows]
    one = _traced_peak(lambda: model.predict(xs[:1], t0s[:1]))
    two = _traced_peak(lambda: model.predict(xs, t0s))
    assert two <= 1.1 * one, (one / 1e6, two / 1e6)


def test_ref228_no_grad_window_peaks_under_16_mb():
    # forward_batch drops each stage's output after its last reader, the
    # encoder output before the transform's rollout: 15.5 MB; keeping the
    # encoder output through the rollout read 16.1 MB, one (1, 12, 228, 128)
    # output kept to the end adds 2.8 MB, and the input projection and the
    # encoder output kept through the decoder read 21.7 MB
    model, windows = _model_and_windows(REF_CFG, 228, 1, seed=74)
    peak = _traced_peak(lambda: model.predict(windows[0].x[None], [windows[0].t0]))
    assert peak <= 16e6, peak / 1e6


def test_training_deterministic_same_seed():
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=1, batch_size=32)
    model_a, hist_a = train(cfg, prepared, graph, node_emb, mask_eps=1e-6)
    model_b, hist_b = train(cfg, prepared, graph, node_emb, mask_eps=1e-6)
    for (name, pa), pb in zip(
        model_a.params.named().items(), model_b.params.named().values()
    ):
        assert np.array_equal(pa.data, pb.data), name
    assert [r.mae for r in hist_a] == [r.mae for r in hist_b]


def test_training_divergence_keeps_last_checkpoint(tmp_path):
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=2, batch_size=256)
    # poison the last reachable y-only step of the train split after
    # normalization, so the loss (not the input check) sees it
    poison = prepared.splits["train"].stop - 1
    prepared.readings[poison] = np.inf
    ckpt = tmp_path / "model.ckpt"
    with pytest.raises(TrainingDiverged):
        train(cfg, prepared, graph, node_emb, checkpoint_path=ckpt, mask_eps=1e-6)


def test_training_step_failure_keeps_last_checkpoint(tmp_path, monkeypatch):
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=2, batch_size=256)
    logged = []  # rows of epoch 0, logged after its checkpoint was saved

    def failing_adam_step(params, state, lr):
        if logged:
            raise GradientError("non-finite gradient in parameter 'input.w'")
        adam_step(params, state, lr)

    monkeypatch.setattr(model_module, "adam_step", failing_adam_step)
    ckpt = tmp_path / "model.ckpt"
    with pytest.raises(TrainingDiverged, match="input.w.*last good checkpoint kept at") as info:
        train(cfg, prepared, graph, node_emb, checkpoint_path=ckpt,
              log_fn=logged.append, mask_eps=1e-6)
    assert info.value.checkpoint == ckpt
    assert isinstance(info.value.__cause__, GradientError)
    assert load_model(ckpt)[0].cfg == cfg


def test_training_step_failure_before_any_save(tmp_path, monkeypatch):
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=1, batch_size=256)

    def degenerate(*args):
        raise DegenerateAttentionError("attention normalizer degenerate at sample 0, query row 3")

    monkeypatch.setattr(model_module, "multi_head_attention", degenerate)
    with pytest.raises(TrainingDiverged, match="query row 3; no checkpoint was good yet") as info:
        train(cfg, prepared, graph, node_emb, checkpoint_path=tmp_path / "model.ckpt",
              mask_eps=1e-6)
    assert info.value.checkpoint is None
    assert not (tmp_path / "model.ckpt").exists()


def test_training_passes_other_step_errors_through(monkeypatch):
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=1, batch_size=256)

    class Probe(Exception):
        pass

    def probe(params):
        raise Probe

    monkeypatch.setattr(model_module, "zero_grads", probe)
    with pytest.raises(Probe):
        train(cfg, prepared, graph, node_emb, mask_eps=1e-6)


def test_overfit_32_noiseless_samples_drives_loss_below_2pct():
    # compact memorization run: no noise, small span, fixed 32 windows
    cfg = load_config(TOY_CFG, dict(
        width=8, heads=2, head_dim=4, hops=1, history=4, horizon=4,
        slots_per_day=24, lr=1e-2, seed=11,
    ))
    graph = ring_graph(4)
    rng = np.random.default_rng(cfg.seed)
    t = np.arange(120)[:, None]
    clean = np.sin(2 * np.pi * (t / 24 + np.arange(4)[None, :] / 4))
    readings = clean[:, :, None]
    windows = make_windows(readings, cfg.history, cfg.horizon)
    subset = [windows[i] for i in np.linspace(0, len(windows) - 1, 32).astype(int)]
    node_emb = rng.normal(size=(4, 64)) * 0.2

    model = Forecaster.new(cfg, graph, node_emb)
    named = model.params.named()
    state = AdamState.for_params(named)

    def total_l1():
        xs = np.stack([w.x for w in subset])
        preds = model.predict(xs, [w.t0 for w in subset])
        return float(np.abs(preds - np.stack([w.y for w in subset])).sum())

    initial = total_l1()
    order = rng.permutation(32)
    pos = 0
    for step in range(500):
        if pos + 8 > 32:
            order = rng.permutation(32)
            pos = 0
        batch = [subset[i] for i in order[pos : pos + 8]]
        pos += 8
        zero_grads(named)
        xs = np.stack([w.x for w in batch])
        pred = forward_batch(
            cfg, model.params, model.ginputs, node_emb, xs, [w.t0 for w in batch]
        )
        backward(T.scale(l1_loss(pred, Tensor(np.stack([w.y for w in batch]))), 1.0 / len(batch)))
        adam_step(named, state, cfg.lr if step < 350 else cfg.lr * 0.1)
    final = total_l1()
    assert final < 0.02 * initial, f"{final} vs initial {initial}"


# ---------------------------------------------------------------------------
# Evaluation and checkpointing

def test_evaluate_horizon_restriction_matches_external():
    cfg, prepared, graph, node_emb = _prepared_ring(epochs=1, batch_size=64)
    model, _ = train(cfg, prepared, graph, node_emb, mask_eps=1e-6)
    windows = make_windows(prepared.readings, cfg.history, cfg.horizon)
    idx = assign_windows(windows, prepared.splits)["train"][:20]
    subset = [windows[i] for i in idx]

    results = evaluate(model, subset, horizons=[3, 6], mask_eps=1e-6)
    from flowcast.data import metrics, zscore_invert

    preds = zscore_invert(
        model.predict(np.stack([w.x for w in subset]), [w.t0 for w in subset]),
        model.norm,
    )
    truth = zscore_invert(np.stack([w.y for w in subset]), model.norm)
    expected = metrics(preds[:, :3], truth[:, :3], 1e-6)
    assert np.allclose(results["3"], expected, atol=1e-12)
    assert "average" in results


def test_evaluate_rejects_bad_horizon(tiny_model):
    tiny_model.norm = (0.0, 1.0)
    with pytest.raises(ValueError):
        evaluate(tiny_model, [], horizons=[99])


def test_model_checkpoint_round_trip(tmp_path, tiny_model):
    m = tiny_model
    m.norm = (1.5, 2.5)
    named = m.params.named()
    state = AdamState.for_params(named)
    for p in named.values():
        p.grad = np.ones_like(p.data)
    adam_step(named, state, lr=1e-3)

    path = tmp_path / "model.ckpt"
    save_model(path, m, state)
    loaded, loaded_state = load_model(path)

    assert loaded.cfg == m.cfg
    assert loaded.norm == m.norm
    assert np.array_equal(loaded.node_emb, m.node_emb)
    assert loaded_state.step == 1
    x = np.random.default_rng(16).normal(size=(m.cfg.history, 3, 1))
    assert np.array_equal(m.predict(x[None], [3]), loaded.predict(x[None], [3]))


def test_a_zero_weight_repeat_of_an_edge_survives_the_checkpoint_round_trip(tmp_path):
    # the file's last line for 0 -> 1 removes that edge; the hop shells, the
    # walks and the checkpoint all read the one adjacency, so the loaded
    # model predicts the same bits
    path = tmp_path / "edges.csv"
    path.write_text("0,1,1.0\n1,2,1.0\n2,3,1.0\n3,0,1.0\n0,1,0\n")
    graph = load_adjacency(path)
    cfg = tiny_cfg(hops=2, history=3, horizon=3)
    m = Forecaster.new(cfg, graph, np.random.default_rng(0).normal(size=(4, 64)))
    assert np.array_equal(m.ginputs.hops[0], graph.adjacency != 0)

    save_model(tmp_path / "model.ckpt", m, None)
    loaded, _ = load_model(tmp_path / "model.ckpt")
    x = np.random.default_rng(1).normal(size=(1, cfg.history, 4, 1))
    assert loaded.predict(x, [3]).tobytes() == m.predict(x, [3]).tobytes()


def test_load_model_takes_each_parameter_from_the_checkpoint(tmp_path, tiny_model, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, None)
    # drawing weights only to overwrite them was the old cost of a load
    monkeypatch.setattr(model_module, "init_params", lambda *args, **kwargs: pytest.fail(
        "load_model drew parameters"
    ))
    loaded, _ = load_model(path)
    saved = tiny_model.params.named()
    for name, p in loaded.params.named().items():
        assert p.requires_grad and p.data.flags.writeable, name
        assert np.array_equal(p.data, saved[name].data), name


@pytest.mark.parametrize(
    "entry",
    ["adam.m.input.w", "adam.v.decoder.fuse.b", "node.embeddings", "norm.std", "graph.adjacency"],
)
def test_load_model_missing_entry_names_it(tmp_path, tiny_model, entry):
    tiny_model.norm = (1.0, 2.0)
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, AdamState.for_params(tiny_model.params.named()))
    arrays = load_arrays(path)
    del arrays[entry]
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=f"missing entry {entry}"):
        load_model(path)


@pytest.mark.parametrize(
    "entry, value",
    [
        ("cfg.width", [np.nan]),
        ("cfg.seed", [1.5]),
        ("cfg.lr_decay_epochs", [2.7]),
        ("cfg.epochs", [1e300]),
        ("adam.step", np.nan),
    ],
)
def test_load_model_rejects_a_bad_integer_entry_naming_it(tmp_path, tiny_model, entry, value):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, AdamState.for_params(tiny_model.params.named()))
    arrays = load_arrays(path)
    arrays[entry] = np.asarray(value, dtype=np.float64)
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: bad {entry} "):
        load_model(path)


def test_load_model_wraps_a_config_error(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, None)
    arrays = load_arrays(path)
    arrays["cfg.heads"] = np.asarray([3.0])  # width is no longer heads x head_dim
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: bad cfg entries: width"):
        load_model(path)


def test_checkpoint_shape_mismatch_reports_dims(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, None)
    arrays = load_arrays(path)
    arrays["param.input.w"] = np.zeros((2, 4))  # wrong channel count
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=r"\(1, 4\).*\(2, 4\)"):
        load_model(path)


def _ring_adjacency_with(i, j, weight):
    adj = ring_graph(3).adjacency.copy()
    adj[i, j] = weight
    return adj


@pytest.mark.parametrize(
    "changes, entry",
    [
        ({"adam.beta1": np.nan, "adam.step": -3.0}, "adam.step"),
        ({"adam.step": -3.0}, "adam.step"),
        ({"adam.beta1": np.nan}, "adam.beta1"),
        ({"adam.beta2": 1.0}, "adam.beta2"),
        ({"adam.eps": 0.0}, "adam.eps"),
        ({"adam.eps": np.inf}, "adam.eps"),
        ({"norm.std": 0.0}, "norm.std"),
        ({"norm.std": np.nan}, "norm.std"),
        ({"norm.mean": np.inf}, "norm.mean"),
        ({"graph.adjacency": _ring_adjacency_with(0, 1, np.nan)}, "graph.adjacency"),
        ({"graph.adjacency": _ring_adjacency_with(0, 1, -1.0)}, "graph.adjacency"),
        ({"graph.adjacency": np.zeros((3, 4))}, "graph.adjacency"),
        ({"graph.adjacency": np.zeros((0, 0))}, "graph.adjacency"),
        ({"graph.adjacency": np.zeros((4, 4))}, "node.embeddings"),  # beside (3, 64) embeddings
        ({"node.embeddings": np.zeros((3, 5))}, "node.embeddings"),
        ({"param.input.w": np.full((1, 4), np.nan)}, "param.input.w"),
        ({"adam.m.input.w": np.zeros((4, 1))}, "adam.m.input.w"),
        ({"adam.v.input.w": -np.ones((1, 4))}, "adam.v.input.w"),
        ({"cfg.lr_decay_epochs": [-3.0, 2.0]}, "cfg entries: lr_decay_epochs"),
        ({"cfg.start_weekday": [-1.0]}, "cfg entries: start_weekday"),
        ({"cfg.start_weekday": [9.0]}, "cfg entries: start_weekday"),
    ],
)
def test_load_model_rejects_each_bad_entry_naming_it(tmp_path, tiny_model, changes, entry):
    tiny_model.norm = (1.0, 2.0)
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, AdamState.for_params(tiny_model.params.named()))
    arrays = load_arrays(path)
    for key, value in changes.items():
        assert key in arrays
        arrays[key] = np.asarray(value, dtype=np.float64)
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: bad {entry} "):
        load_model(path)
