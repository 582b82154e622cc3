"""Model assembly: projections, context fusion, transform, full pipeline,
training loop, and checkpoint round trips."""

from pathlib import Path

import numpy as np
import pytest

from flowcast import model as model_module
from flowcast import tensor as T
from flowcast.attention import DegenerateAttentionError
from flowcast.checkpoint import CheckpointError, load_arrays, save_arrays
from flowcast.data import assign_windows, make_windows
from flowcast.graph import RoadGraph
from flowcast.model import (
    CSV_HEADER,
    ConfigError,
    ContractError,
    Forecaster,
    GraphInputs,
    ModelConfig,
    TrainingDiverged,
    context_block,
    decoder_forward,
    encoder_forward,
    evaluate,
    forward_batch,
    init_params,
    input_projection,
    load_config,
    load_model,
    output_projection,
    prepare_dataset,
    save_config,
    save_model,
    train,
    transform_layer,
)
from flowcast.optim import AdamState, GradientError, adam_step, zero_grads
from flowcast.synth import make_ring_dataset, ring_graph
from flowcast.tensor import Tensor, backward, l1_loss

from gradcheck import grad_close, numeric_grad

TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"


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
    emb_proj = T.add(T.matmul(Tensor(model.node_emb), p.emb_w), p.emb_b)
    hist = temporal_encoding(t0, steps_hist, cfg.slots_per_day, cfg.start_weekday)
    fut = temporal_encoding(
        t0 + steps_hist, steps_fut, cfg.slots_per_day, cfg.start_weekday
    )
    time_hist = T.add(T.matmul(Tensor(hist), p.time_w), p.time_b)
    time_fut = T.add(T.matmul(Tensor(fut), p.time_w), p.time_b)
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
# Projections

def test_input_projection_ones():
    cfg = tiny_cfg()
    params = init_params(cfg)
    params.in_w.data = np.ones((1, 4))
    params.in_b.data = np.zeros(4)
    out = input_projection(params, Tensor(np.ones((2, 3, 1))))
    assert np.array_equal(out.data, np.ones((2, 3, 4)))


def test_input_projection_zero_weights():
    cfg = tiny_cfg()
    params = init_params(cfg)
    params.in_w.data = np.zeros((1, 4))
    out = input_projection(params, Tensor(np.ones((2, 3, 1))))
    assert not out.data.any()


def test_input_projection_channel_mismatch():
    params = init_params(tiny_cfg())
    with pytest.raises(Exception, match="channel"):
        input_projection(params, Tensor(np.zeros((2, 3, 2))))


def test_projection_gradients():
    rng = np.random.default_rng(40)
    params = init_params(tiny_cfg())
    x = Tensor(rng.normal(size=(2, 3, 1)))
    c = Tensor(rng.normal(size=(2, 3, 4)))
    backward(T.sum_(T.mul(input_projection(params, x), c)))

    def forward():
        return (input_projection(params, x).data * c.data).sum()

    assert grad_close(params.in_w.grad, numeric_grad(forward, params.in_w.data))
    assert grad_close(params.in_b.grad, numeric_grad(forward, params.in_b.data))


def test_output_projection_shape():
    params = init_params(tiny_cfg())
    out = output_projection(params, Tensor(np.zeros((2, 3, 4))))
    assert out.shape == (2, 3, 1)


# ---------------------------------------------------------------------------
# Context block

def test_context_block_shape(tiny_model):
    m = tiny_model
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)))
    h0 = [Tensor(np.zeros((3, 4)))]
    tokens, finals = context_block(
        m.cfg, m.params.encoder, xh, emb_proj, time_hist, m.ginputs, h0
    )
    assert tokens.shape == (2, 3, 4)
    assert len(finals) == 1 and finals[0].shape == (3, 4)


def test_context_block_zeroed_fusion_is_residual(tiny_model):
    m = tiny_model
    m.params.encoder.fuse_w.data = np.zeros_like(m.params.encoder.fuse_w.data)
    m.params.encoder.fuse_b.data = np.zeros_like(m.params.encoder.fuse_b.data)
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4)))
    tokens, _ = context_block(
        m.cfg, m.params.encoder, xh, emb_proj, time_hist, m.ginputs,
        [Tensor(np.zeros((3, 4)))],
    )
    assert np.array_equal(tokens.data, xh.data)


def test_context_block_span_mismatch(tiny_model):
    m = tiny_model
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.zeros((3, 3, 4)))  # 3 steps, static context built for 2
    with pytest.raises(ContractError, match="steps"):
        context_block(
            m.cfg, m.params.encoder, xh, emb_proj, time_hist, m.ginputs,
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
        m.cfg, m.params.encoder, Tensor(x), emb_proj, time_hist, m.ginputs, h0
    )
    b, _ = context_block(
        m.cfg, m.params.encoder, Tensor(perturbed), emb_proj, time_hist,
        m.ginputs, h0,
    )
    # tokens of earlier steps are untouched: GRU is causal, diffusion is
    # step-local, statics are static
    assert np.array_equal(a.data[:3], b.data[:3])
    assert not np.array_equal(a.data[3:], b.data[3:])


# ---------------------------------------------------------------------------
# Encoder

def test_encoder_shapes_and_determinism(tiny_model):
    m = tiny_model
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4)))
    enc1, finals1 = encoder_forward(m.cfg, m.params, xh, emb_proj, time_hist, m.ginputs)
    enc2, _ = encoder_forward(m.cfg, m.params, xh, emb_proj, time_hist, m.ginputs)
    assert enc1.shape == (2, 3, 4)
    assert len(finals1) == 1
    assert np.array_equal(enc1.data, enc2.data)


def test_encoder_gradient_coverage(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(6)
    emb_proj, time_hist, _ = _projected_statics(m, 2, 2)
    xh = input_projection(m.params, Tensor(rng.normal(size=(2, 3, 1))))
    enc, _ = encoder_forward(m.cfg, m.params, xh, emb_proj, time_hist, m.ginputs)
    backward(T.sum_(T.mul(enc, Tensor(rng.normal(size=enc.shape)))))
    for name, p in m.params.encoder.named("encoder").items():
        assert p.grad is not None and np.any(p.grad != 0), f"dead parameter {name}"


# ---------------------------------------------------------------------------
# Transform layer

def test_transform_output_shape(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(7)
    emb_proj, time_hist, time_fut = _projected_statics(m, 2, 2)
    enc_tokens = Tensor(rng.normal(size=(2, 3, 4)))
    finals = [Tensor(rng.normal(size=(3, 4)))]
    out = transform_layer(
        m.cfg, m.params, enc_tokens, finals, Tensor(rng.normal(size=(3, 4))),
        emb_proj, time_hist, time_fut,
    )
    assert out.shape == (2, 3, 4)


def test_transform_convexity_collapse():
    # single head, identity output map, constant key/value rows: every
    # output row must equal that value row
    cfg = tiny_cfg(heads=1, head_dim=4)
    graph = ring_graph(3)
    rng = np.random.default_rng(8)
    m = Forecaster.new(cfg, graph, rng.normal(size=(3, 64)))
    tp = m.params.transform
    tp.attn.w_o.data = np.eye(4)
    tp.kv_fuse_w.data = np.zeros_like(tp.kv_fuse_w.data)
    tp.kv_fuse_b.data = rng.normal(size=4)  # all kv rows become this bias
    emb_proj, time_hist, time_fut = _projected_statics(m, 2, 2)
    out = transform_layer(
        m.cfg, m.params, Tensor(rng.normal(size=(2, 3, 4))),
        [Tensor(rng.normal(size=(3, 4)))], Tensor(rng.normal(size=(3, 4))),
        emb_proj, time_hist, time_fut,
    )
    expected_value_row = tp.kv_fuse_b.data @ tp.attn.w_v[0].data
    assert np.max(np.abs(out.data - expected_value_row)) < 1e-10


def test_transform_global_receptive_field(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(9)
    emb_proj, time_hist, time_fut = _projected_statics(m, 2, 2)
    finals = [Tensor(rng.normal(size=(3, 4)))]
    x_last = Tensor(rng.normal(size=(3, 4)))
    enc_tokens = rng.normal(size=(2, 3, 4))
    base = transform_layer(
        m.cfg, m.params, Tensor(enc_tokens), finals, x_last,
        emb_proj, time_hist, time_fut,
    )
    for position in np.ndindex(2, 3):
        poked = enc_tokens.copy()
        poked[position] += 0.37
        out = transform_layer(
            m.cfg, m.params, Tensor(poked), finals, x_last,
            emb_proj, time_hist, time_fut,
        )
        assert not np.array_equal(out.data, base.data), position


# ---------------------------------------------------------------------------
# Decoder

def test_decoder_shape(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(10)
    emb_proj, _, time_fut = _projected_statics(m, 2, 2)
    out = decoder_forward(
        m.cfg, m.params, Tensor(rng.normal(size=(2, 3, 4))),
        [Tensor(np.zeros((3, 4)))], emb_proj, time_fut, m.ginputs,
    )
    assert out.shape == (2, 3, 4)


def test_decoder_zeroed_attention_reduces_to_context_block(tiny_model):
    m = tiny_model
    rng = np.random.default_rng(11)
    m.params.decoder.attn.w_o.data = np.zeros((4, 4))
    emb_proj, _, time_fut = _projected_statics(m, 2, 2)
    dec_tokens = Tensor(rng.normal(size=(2, 3, 4)))
    finals = [Tensor(rng.normal(size=(3, 4)))]
    out = decoder_forward(
        m.cfg, m.params, dec_tokens, finals, emb_proj, time_fut, m.ginputs
    )
    ctx, _ = context_block(
        m.cfg, m.params.decoder, dec_tokens,
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
    graph = RoadGraph.from_adjacency(adj)
    node_emb = rng.normal(size=(n, 64))
    x = rng.normal(size=(cfg.history, n, 1))

    m = Forecaster.new(cfg, graph, node_emb)
    base = m.predict(x[None], [2])[0]

    perm = rng.permutation(n)
    p_mat = np.eye(n)[perm]
    graph_p = RoadGraph.from_adjacency(p_mat @ adj @ p_mat.T)
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
        emb_proj = T.add(T.matmul(Tensor(m.node_emb), p.emb_w), p.emb_b)
        from flowcast.context import temporal_encoding

        hist = temporal_encoding(0, m.cfg.history, m.cfg.slots_per_day, 0)
        fut = temporal_encoding(
            m.cfg.history, m.cfg.horizon, m.cfg.slots_per_day, 0
        )
        time_hist = T.add(T.matmul(Tensor(hist), p.time_w), p.time_b)
        time_fut = T.add(T.matmul(Tensor(fut), p.time_w), p.time_b)
        xh = input_projection(p, Tensor(x))
        enc, finals = encoder_forward(m.cfg, p, xh, emb_proj, time_hist, m.ginputs)
        dec_in = transform_layer(
            m.cfg, p, enc, finals, xh[m.cfg.history - 1], emb_proj, time_hist,
            time_fut,
        )
        feats = decoder_forward(
            m.cfg, p, dec_in, finals, emb_proj, time_fut, m.ginputs
        )
        for t in range(m.cfg.horizon):
            step = T.add(T.matmul(feats[t], p.out_w), p.out_b)
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
    loaded, loaded_state = load_model(path, m.ginputs.graph)

    assert loaded.cfg == m.cfg
    assert loaded.norm == m.norm
    assert np.array_equal(loaded.node_emb, m.node_emb)
    assert loaded_state.step == 1
    x = np.random.default_rng(16).normal(size=(m.cfg.history, 3, 1))
    assert np.array_equal(m.predict(x[None], [3]), loaded.predict(x[None], [3]))


@pytest.mark.parametrize(
    "entry",
    ["adam.m.input.w", "adam.v.decoder.fuse.b", "node.embeddings", "norm.std"],
)
def test_load_model_missing_entry_names_it(tmp_path, tiny_model, entry):
    tiny_model.norm = (1.0, 2.0)
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, AdamState.for_params(tiny_model.params.named()))
    arrays = load_arrays(path)
    del arrays[entry]
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=f"missing entry {entry}"):
        load_model(path, tiny_model.ginputs.graph)


def test_checkpoint_shape_mismatch_reports_dims(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model, None)
    arrays = load_arrays(path)
    arrays["param.input.w"] = np.zeros((2, 4))  # wrong channel count
    save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=r"\(1, 4\).*\(2, 4\)"):
        load_model(path, tiny_model.ginputs.graph)
