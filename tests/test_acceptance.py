"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criterion 11 (full-scale dataset reproduction) is a
long-running script kept out of the suite; its test only checks that the
script and config are in place.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from flowcast import tensor as T
from flowcast.attention import linear_attention, softmax_attention
from flowcast.cli import main
from flowcast.context import (
    gru_sequence,
    node2vec_walks,
    skipgram_train,
    temporal_encoding,
)
from flowcast.data import assign_windows, make_windows, metrics
from flowcast.graph import RoadGraph, hop_shells, hop_transitions, multi_hop_conv
from flowcast.model import (
    Forecaster,
    ModelConfig,
    forward_batch,
    load_config,
    prepare_dataset,
    train,
)
from flowcast.optim import lr_at_epoch
from flowcast.synth import make_ring_dataset, ring_graph
from flowcast.tensor import Tensor, backward, l1_loss

import ops
from gradcheck import grad_close, numeric_grad
from oracles import gru_cell_node, similarity_attention

REPO = Path(__file__).resolve().parents[1]
TOY_CFG = REPO / "configs" / "toy.cfg"


def _passed(n: int, message: str) -> None:
    print(f"\n[PASS] criterion {n}: {message}")


# ---------------------------------------------------------------------------
# 1. linear attention == explicit double sum

def test_criterion_1_linear_attention_equals_double_sum():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 65))
        d = int(rng.integers(1, 17))
        q = rng.uniform(-2, 2, (m, d))
        k = rng.uniform(-2, 2, (m, d))
        v = rng.normal(size=(m, d))

        fast = linear_attention(Tensor(q), Tensor(k), Tensor(v)).data

        slow = np.zeros_like(v)
        for i in range(m):
            num = np.zeros(d)
            den = 0.0
            for j in range(m):
                w = float(np.exp(q[i]) @ np.exp(k[j]))
                num += w * v[j]
                den += w
            slow[i] = num / den
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10, worst
    assert elapsed < 10.0, elapsed
    _passed(1, f"rewritten vs double-sum attention, max diff {worst:.2e} "
               f"over 100 instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. softmax attention == generic similarity form

def test_criterion_2_softmax_attention_equals_similarity_form():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 65))
        d = int(rng.integers(1, 17))
        q = rng.uniform(-2, 2, (m, d))
        k = rng.uniform(-2, 2, (m, d))
        v = rng.normal(size=(m, d))
        direct = softmax_attention(Tensor(q), Tensor(k), Tensor(v)).data
        generic = similarity_attention(q, k, v)  # sim = exp(q.k/sqrt(d))
        worst = max(worst, float(np.max(np.abs(direct - generic))))
    assert worst < 1e-10, worst
    _passed(2, f"normalized-score vs similarity-ratio form, max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. gradient suite: every parameterized op plus the full toy model

def _fd_check(configure, tolerance=1e-4):
    """configure() -> (loss_tensor_fn, params); checks every param entry."""
    loss_fn, params = configure()
    backward(loss_fn())
    for name, p in params.items():
        assert p.grad is not None, f"{name} has no gradient"
        numeric = numeric_grad(lambda: float(loss_fn().data), p.data)
        assert grad_close(p.grad, numeric, rtol=tolerance), name


def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(103)

    # matmul
    a = T.param(rng.uniform(-1, 1, (3, 4)))
    b = T.param(rng.uniform(-1, 1, (4, 2)))
    c = Tensor(rng.uniform(-1, 1, (3, 2)))
    _fd_check(lambda: (lambda: ops.sum_(ops.mul(ops.matmul(a, b), c)), {"a": a, "b": b}))

    # elementwise family (kept away from |x| kinks)
    x = T.param(rng.uniform(0.2, 1.0, (3, 3)) * rng.choice([-1.0, 1.0], (3, 3)))
    y = T.param(rng.uniform(0.5, 1.5, (3, 3)))
    w = Tensor(rng.uniform(-1, 1, (3, 3)))
    for op in (
        lambda: ops.add(x, y), lambda: ops.sub(x, y), lambda: ops.mul(x, y),
        lambda: ops.div(x, y), lambda: ops.sigmoid(x), lambda: ops.tanh(x),
        lambda: ops.exp(x), lambda: T.scale(x, -1.7), lambda: ops.absolute(x),
        lambda: ops.concat([x, y], axis=1), lambda: ops.reshape(x, (9, 1)),
        lambda: T._slice(x, 1),
    ):
        x.grad = y.grad = None
        out = op()
        mask = Tensor(rng.uniform(-1, 1, out.shape))
        loss_fn = lambda: ops.sum_(ops.mul(op(), mask))  # noqa: B023
        backward(loss_fn())
        for t in (x, y):
            if t.grad is not None:
                assert grad_close(t.grad, numeric_grad(lambda: float(loss_fn().data), t.data))

    # softmax
    sx = T.param(rng.uniform(-1, 1, (4, 5)))
    sm = Tensor(rng.uniform(-1, 1, (4, 5)))
    _fd_check(lambda: (lambda: ops.sum_(ops.mul(ops.softmax(sx, axis=1), sm)), {"sx": sx}))

    # l1 objective (targets bounded away from predictions)
    lp = T.param(rng.uniform(1.0, 2.0, (3, 3)))
    lt = Tensor(rng.uniform(-2.0, -1.0, (3, 3)))
    _fd_check(lambda: (lambda: l1_loss(lp, lt), {"lp": lp}))

    # GRU cell
    from flowcast.context import GruLayerParams

    f = 4
    layer = GruLayerParams(
        *(T.param(rng.uniform(-0.5, 0.5, (f, f))) for _ in range(6)),
        *(T.param(rng.uniform(-0.2, 0.2, f)) for _ in range(3)),
    )
    gx = T.param(rng.uniform(-1, 1, (3, f)))
    gh = T.param(rng.uniform(-1, 1, (3, f)))
    gmask = Tensor(rng.uniform(-1, 1, (3, f)))
    gru_params = {"gx": gx, "gh": gh}
    gru_params.update(layer.named("gru"))
    _fd_check(lambda: (
        lambda: ops.sum_(ops.mul(gru_cell_node(gx, gh, layer), gmask)), gru_params,
    ))

    # multi-hop diffusion conv
    graph = ring_graph(4)
    trans = hop_transitions(hop_shells(graph, 2))
    mx = T.param(rng.uniform(-1, 1, (4, f)))
    w_x = [T.param(rng.uniform(-0.5, 0.5, (f, f // 2))) for _ in range(2)]
    w_d = T.param(rng.uniform(-0.5, 0.5, (f, f)))
    mmask = Tensor(rng.uniform(-1, 1, (4, f)))
    conv_params = {"mx": mx, "w_d": w_d, "w_x0": w_x[0], "w_x1": w_x[1]}
    _fd_check(lambda: (
        lambda: ops.sum_(ops.mul(multi_hop_conv(mx, trans, w_x, w_d), mmask)),
        conv_params,
    ))

    # linear attention and the multi-head wrapper
    q = T.param(rng.uniform(-1, 1, (5, 3)))
    k = T.param(rng.uniform(-1, 1, (5, 3)))
    v = T.param(rng.uniform(-1, 1, (5, 3)))
    amask = Tensor(rng.uniform(-1, 1, (5, 3)))
    _fd_check(lambda: (
        lambda: ops.sum_(ops.mul(linear_attention(q, k, v), amask)),
        {"q": q, "k": k, "v": v},
    ))

    from flowcast.attention import AttentionParams, multi_head_attention

    attn = AttentionParams(
        w_q=[T.param(rng.uniform(-0.5, 0.5, (4, 2))) for _ in range(2)],
        w_k=[T.param(rng.uniform(-0.5, 0.5, (4, 2))) for _ in range(2)],
        w_v=[T.param(rng.uniform(-0.5, 0.5, (4, 2))) for _ in range(2)],
        w_o=T.param(rng.uniform(-0.5, 0.5, (4, 4))),
    )
    ax = T.param(rng.uniform(-1, 1, (2, 3, 4)))  # (T, N, F) features
    hmask = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
    mha_params = {"ax": ax}
    mha_params.update(attn.named("attn"))
    _fd_check(lambda: (
        lambda: ops.sum_(ops.mul(multi_head_attention(ax, None, attn), hmask)),
        mha_params,
    ))

    # full toy model: every parameter entry
    cfg = ModelConfig(
        width=4, heads=2, head_dim=2, hops=1, gru_layers=1, history=2,
        horizon=2, channels=1, slots_per_day=4, start_weekday=0, lr=1e-3,
        epochs=1, seed=3,
    )
    model = Forecaster.new(cfg, ring_graph(3), rng.normal(size=(3, 64)) * 0.3)
    xin = rng.uniform(-1, 1, (1, 2, 3, 1))
    first = forward_batch(cfg, model.params, model.ginputs, model.node_emb, xin, [5])
    target = Tensor(first.data - rng.uniform(0.5, 1.5, first.data.shape))

    def model_loss():
        pred = forward_batch(cfg, model.params, model.ginputs, model.node_emb, xin, [5])
        return l1_loss(pred, target)

    backward(model_loss())
    named = model.params.named()
    entries = 0
    for name, p in named.items():
        assert p.grad is not None, f"{name} has no gradient"
        numeric = numeric_grad(lambda: float(model_loss().data), p.data)
        entries += p.size
        assert grad_close(p.grad, numeric), name

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, elapsed
    _passed(3, f"all ops + {entries} full-model parameter entries vs "
               f"finite differences in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. hop decomposition vs Floyd-Warshall

def test_criterion_4_hop_adjacency_oracle():
    rng = np.random.default_rng(104)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 6))
        adj = (rng.random((n, n)) < rng.uniform(0.05, 0.35)).astype(float)
        np.fill_diagonal(adj, 0.0)
        graph = RoadGraph(adj * rng.uniform(0.1, 3.0, (n, n)))

        inf = n + 10
        dist = np.full((n, n), inf)
        np.fill_diagonal(dist, 0)
        dist[(adj != 0) & (np.eye(n) == 0)] = 1
        for mid in range(n):
            dist = np.minimum(dist, dist[:, mid : mid + 1] + dist[mid : mid + 1, :])

        hops = hop_shells(graph, k)
        assert hops.dtype == bool and hops.shape == (k, n, n)
        for i in range(k):
            assert np.array_equal(hops[i], (dist == i + 1).astype(float))
            for j in range(i + 1, k):
                assert not np.any(hops[i] * hops[j])
    _passed(4, "hop shells match the Floyd-Warshall reference on 50 graphs, "
               "pairwise disjoint")


# ---------------------------------------------------------------------------
# 5. GRU causality

def test_criterion_5_gru_causality():
    rng = np.random.default_rng(105)
    from flowcast.context import GruLayerParams

    f, n, steps = 4, 3, 8
    layer = GruLayerParams(
        *(Tensor(rng.uniform(-0.5, 0.5, (f, f))) for _ in range(6)),
        *(Tensor(rng.uniform(-0.2, 0.2, f)) for _ in range(3)),
    )
    h0 = [Tensor(np.zeros((n, f)))]
    for _ in range(20):
        x = rng.normal(size=(steps, n, f))
        cut = int(rng.integers(1, steps))
        poked = x.copy()
        poked[cut:] += rng.normal(size=(steps - cut, n, f))
        a, _ = gru_sequence(Tensor(x), h0, [layer])
        b, _ = gru_sequence(Tensor(poked), h0, [layer])
        assert np.max(np.abs(a.data[:cut] - b.data[:cut])) <= 1e-12
    _passed(5, "20 random perturbation trials leave earlier steps unchanged")


# ---------------------------------------------------------------------------
# 6. stabilization shifts cancel exactly

def test_criterion_6_stabilization_exactness():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 48))
        d = int(rng.integers(1, 12))
        q = rng.uniform(-5, 5, (m, d))
        k = rng.uniform(-5, 5, (m, d))
        v = rng.normal(size=(m, d))
        shifted = linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
        plain = similarity_attention(
            q, k, v, sim=lambda qi, kj: float(np.exp(qi) @ np.exp(kj))
        )
        worst = max(worst, float(np.max(np.abs(shifted - plain))))
    assert worst < 1e-10, worst
    _passed(6, f"stabilized vs raw exponential kernel, max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. convexity of linear attention outputs

def test_criterion_7_convexity():
    rng = np.random.default_rng(107)
    for _ in range(100):
        m = int(rng.integers(1, 64))
        d = int(rng.integers(1, 16))
        q = Tensor(rng.uniform(-3, 3, (m, d)))
        k = Tensor(rng.uniform(-3, 3, (m, d)))
        v = rng.normal(size=(m, d)) * rng.uniform(0.5, 4.0)
        out = linear_attention(q, k, Tensor(v)).data
        assert np.all(out >= v.min(axis=0) - 1e-10)
        assert np.all(out <= v.max(axis=0) + 1e-10)
    _passed(7, "100 instances stay inside the value convex hull")


# ---------------------------------------------------------------------------
# 8. overfit convergence on the synthetic ring

def test_criterion_8_overfit_convergence():
    started = time.perf_counter()
    cfg = load_config(TOY_CFG)
    dataset, graph = make_ring_dataset(n_nodes=8, steps=2000, noise=0.05, seed=0)
    signal_std = float(dataset.readings.std())
    prepared = prepare_dataset(dataset)

    walks = node2vec_walks(graph, walk_len=20, walks_per_node=8, seed=cfg.seed)
    node_emb = skipgram_train(walks, window=4, negatives=4, epochs=2, seed=cfg.seed,
                         n_nodes=graph.n_nodes)

    windows = make_windows(prepared.readings, cfg.history, cfg.horizon)
    train_idx = assign_windows(windows, prepared.splits)["train"]
    adam_steps = cfg.epochs * int(np.ceil(len(train_idx) / cfg.batch_size))
    assert adam_steps <= 500, adam_steps

    model, _ = train(cfg, prepared, graph, node_emb, mask_eps=1e-6)

    subset = [windows[i] for i in train_idx]
    xs = np.stack([w.x for w in subset])
    preds = model.predict(xs, [w.t0 for w in subset])
    mae_norm = float(np.mean(np.abs(preds - np.stack([w.y for w in subset]))))
    mae_raw = mae_norm * prepared.norm[1]
    elapsed = time.perf_counter() - started

    assert mae_raw < 0.05 * signal_std, (mae_raw, signal_std)
    assert elapsed < 600.0, elapsed

    # bit-reproducibility of the training trajectory (one-epoch prefix)
    probe_cfg = load_config(TOY_CFG, {"epochs": 1})
    run_a, _ = train(probe_cfg, prepared, graph, node_emb, mask_eps=1e-6)
    run_b, _ = train(probe_cfg, prepared, graph, node_emb, mask_eps=1e-6)
    for (name, pa), pb in zip(
        run_a.params.named().items(), run_b.params.named().values()
    ):
        assert np.array_equal(pa.data, pb.data), name

    _passed(8, f"{adam_steps} Adam steps -> training MAE "
               f"{mae_raw / signal_std:.1%} of signal std in {elapsed:.0f}s, "
               f"trajectory bit-reproducible")


# ---------------------------------------------------------------------------
# 9. complexity benchmark through the CLI

def test_criterion_9_complexity_benchmark(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--sizes", "1024,4096", "--dim", "16",
               "--repeats", "5", "--out", str(out)])
    assert rc == 0
    rows = {}
    for line in out.read_text().splitlines()[1:]:
        m, variant, seconds, peak = line.split(",")
        rows[(int(m), variant)] = (float(seconds), int(peak))

    quad_ratio = rows[(4096, "quadratic")][0] / rows[(1024, "quadratic")][0]
    lin_ratio = rows[(4096, "linear")][0] / rows[(1024, "linear")][0]
    mem_quad = rows[(4096, "quadratic")][1] / rows[(1024, "quadratic")][1]
    mem_lin = rows[(4096, "linear")][1] / rows[(1024, "linear")][1]

    assert quad_ratio >= 2.0 * lin_ratio, (quad_ratio, lin_ratio)
    assert lin_ratio <= 6.0, lin_ratio
    assert mem_quad >= 10.0, mem_quad
    assert mem_lin < 6.0, mem_lin
    _passed(9, f"4x tokens: quadratic {quad_ratio:.1f}x time / {mem_quad:.1f}x "
               f"memory, linear {lin_ratio:.1f}x time / {mem_lin:.1f}x memory")


# ---------------------------------------------------------------------------
# 10. metrics fidelity, LR schedule, one-hot width

def test_criterion_10_metrics_and_schedule_fidelity():
    rng = np.random.default_rng(110)
    pred = rng.normal(loc=20, scale=5, size=(6, 4))
    truth = rng.normal(loc=20, scale=5, size=(6, 4))
    mae, rmse, mape = metrics(pred, truth, mask_eps=1.0)

    abs_sum = sq_sum = 0.0
    pct = []
    for p, t in zip(pred.ravel(), truth.ravel()):
        abs_sum += abs(p - t)
        sq_sum += (p - t) ** 2
        if abs(t) >= 1.0:
            pct.append(abs((p - t) / t))
    assert abs(mae - abs_sum / pred.size) < 1e-12
    assert abs(rmse - (sq_sum / pred.size) ** 0.5) < 1e-12
    assert abs(mape - 100.0 * sum(pct) / len(pct)) < 1e-12

    cfg = load_config(REPO / "configs" / "england.cfg")
    assert cfg.epochs == 40 and cfg.lr_decay_epochs == [25, 35]
    schedule = [
        lr_at_epoch(e, cfg.lr, cfg.lr_decay_epochs, cfg.lr_decay_factor)
        for e in range(cfg.epochs)
    ]
    assert schedule[24] == pytest.approx(1e-3)
    assert schedule[25] == pytest.approx(1e-4)
    assert schedule[34] == pytest.approx(1e-4)
    assert schedule[35] == pytest.approx(1e-5)

    pems = load_config(REPO / "configs" / "pemsd7.cfg")
    assert pems.epochs == 8 and pems.lr_decay_epochs == [5, 6, 7]

    assert temporal_encoding(0, 1, 288, 0).shape == (1, 295)
    _passed(10, "loop-oracle metrics, 1e-3 -> 1e-4 @25 -> 1e-5 @35 schedule, "
                "one-hot width 295 at 288 slots/day")


# ---------------------------------------------------------------------------
# 11. full-scale reproduction (stretch, non-gating)

def test_criterion_11_reproduction_script_documented():
    script = REPO / "scripts" / "reproduce_pemsd7.sh"
    assert script.exists()
    assert "2.52" in script.read_text()
    assert (REPO / "configs" / "pemsd7.cfg").exists()
    pytest.skip(
        "criterion 11 is a long-running full-dataset run, excluded from the "
        "suite; run scripts/reproduce_pemsd7.sh with the real PEMSD7 data "
        "(target: average test MAE within 15% of 2.52)"
    )
