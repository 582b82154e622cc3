"""Context streams: random walks, embeddings, one-hots, and the GRU."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import ops

from flowcast import tensor as T
from flowcast.context import (
    EmbeddingFormatError,
    GruLayerParams,
    gru_sequence,
    gru_stack,
    load_embeddings,
    node2vec_walks,
    save_embeddings,
    skipgram_train,
    temporal_encoding,
)
from flowcast.graph import RoadGraph
from flowcast.synth import ring_graph
from flowcast.tensor import ShapeError, Tensor

from gradcheck import assert_vjp_repeats, grad_close, numeric_grad
from oracles import graph_from_edges, gru_cell_node


# ---------------------------------------------------------------------------
# Random walks

def test_walk_count():
    g = graph_from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    walks = node2vec_walks(g, walks_per_node=2, walk_len=10, seed=1)
    assert len(walks) == 10


def test_isolated_node_walks_are_singletons():
    g = graph_from_edges(3, [(0, 1, 1.0)])
    walks = node2vec_walks(g, walks_per_node=3, walk_len=5, seed=2)
    for walk in walks:
        if walk[0] == 2:
            assert walk == [2]


def test_two_node_pair_alternates():
    g = graph_from_edges(2, [(0, 1, 1.0)])
    for walk in node2vec_walks(g, walks_per_node=4, walk_len=12, seed=3):
        assert len(walk) == 12
        for a, b in zip(walk, walk[1:]):
            assert b == 1 - a


def test_walks_deterministic_under_seed():
    g = graph_from_edges(6, [(i, (i + 1) % 6, 1.0) for i in range(6)])
    assert node2vec_walks(g, seed=7, walk_len=10) == node2vec_walks(
        g, seed=7, walk_len=10
    )


def test_walk_rejects_bad_params():
    g = graph_from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        node2vec_walks(g, p=0.0)
    with pytest.raises(ValueError):
        node2vec_walks(g, walk_len=1)


@pytest.mark.parametrize("edges", [
    [(0, 1, 1e308), (1, 0, 1e308), (1, 2, 1.0)],  # their undirected weight overflows to inf
    [(0, 1, 1e308), (1, 2, 1e308)],  # node 1's weights sum to inf, so its cdf is NaN
], ids=["inf", "nan"])
def test_walk_rejects_non_finite_weights(edges):
    # RoadGraph refuses a non-finite weight, but finite ones can overflow in a walk
    g = graph_from_edges(3, edges)
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="not finite"):
        node2vec_walks(g, walk_len=4, walks_per_node=1)


# ---------------------------------------------------------------------------
# Skip-gram embeddings

def barbell_graph() -> RoadGraph:
    """Two triangle-and-a-half cliques joined by a short path."""
    edges = []
    for a in range(4):
        for b in range(4):
            if a != b:
                edges.append((a, b, 1.0))
    for a in range(6, 10):
        for b in range(6, 10):
            if a != b:
                edges.append((a, b, 1.0))
    edges += [(3, 4, 1.0), (4, 3, 1.0), (4, 5, 1.0), (5, 4, 1.0),
              (5, 6, 1.0), (6, 5, 1.0)]
    return graph_from_edges(10, edges)


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_skipgram_shape_and_finiteness():
    g = barbell_graph()
    walks = node2vec_walks(g, walks_per_node=4, walk_len=15, seed=0)
    emb = skipgram_train(walks, window=4, negatives=3, epochs=2, seed=0,
                         n_nodes=g.n_nodes)
    assert emb.shape == (10, 64)
    assert np.all(np.isfinite(emb))


def test_skipgram_groups_structurally_close_nodes():
    g = barbell_graph()
    same, cross = [], []
    for seed in range(5):
        walks = node2vec_walks(g, walks_per_node=8, walk_len=20, seed=seed)
        emb = skipgram_train(walks, window=4, negatives=4, epochs=3, seed=seed,
                             n_nodes=g.n_nodes)
        same.append(_cosine(emb[0], emb[1]))
        cross.extend(
            _cosine(emb[a], emb[b]) for a, b in [(0, 7), (1, 8), (2, 9)]
        )
    assert np.mean(same) > np.mean(cross)


def test_skipgram_deterministic_under_seed():
    g = barbell_graph()
    walks = node2vec_walks(g, walks_per_node=3, walk_len=10, seed=4)
    a = skipgram_train(walks, epochs=1, seed=4, n_nodes=g.n_nodes)
    b = skipgram_train(walks, epochs=1, seed=4, n_nodes=g.n_nodes)
    assert np.array_equal(a, b)


def test_skipgram_requires_walks():
    with pytest.raises(ValueError, match="node2vec_walks"):
        skipgram_train([])


# ---------------------------------------------------------------------------
# Same bits as the per-step loops in tests/oracles.py

def weighted_graph_with_isolated_node() -> RoadGraph:
    rng = np.random.default_rng(5)
    adj = (rng.random((24, 24)) < 0.15) * rng.uniform(0.1, 3.0, (24, 24))
    np.fill_diagonal(adj, 0.0)
    adj[7, :] = adj[:, 7] = 0.0
    return RoadGraph(adj)


def assert_same_walks_and_embeddings(g, walk_kw, skipgram_kw):
    walks = node2vec_walks(g, **walk_kw)
    assert walks == oracles.node2vec_walks(g, **walk_kw)
    ours = skipgram_train(walks, n_nodes=g.n_nodes, **skipgram_kw)
    ref = oracles.skipgram_train(walks, n_nodes=g.n_nodes, **skipgram_kw)
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_walks_and_embeddings_match_loop_oracle(seed):
    # CLI defaults except fewer, shorter walks and one epoch
    assert_same_walks_and_embeddings(
        ring_graph(8),
        dict(walk_len=30, walks_per_node=4, seed=seed),
        dict(epochs=1, seed=seed),
    )


@pytest.mark.parametrize("p, q", [(0.25, 4.0), (3.0, 0.3)])
def test_weighted_walks_and_embeddings_match_loop_oracle(p, q):
    g = weighted_graph_with_isolated_node()
    walks = node2vec_walks(g, p=p, q=q, walk_len=15, walks_per_node=3, seed=1)
    assert [7] in walks  # the isolated node's walks stop at once
    # 97 does not divide the pair count, so each epoch ends on a partial batch
    assert_same_walks_and_embeddings(
        g,
        dict(p=p, q=q, walk_len=15, walks_per_node=3, seed=1),
        dict(window=5, negatives=3, epochs=2, seed=2, batch=97),
    )


class EighthsGenerator(np.random.Generator):
    """A Generator whose uniforms are multiples of 1/8, so draws land exactly
    on the cdf steps of uniform choices among 2, 4 or 8 items."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 8.0) / 8.0


def test_draws_on_a_cdf_step_pick_what_choice_picks(monkeypatch):
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: EighthsGenerator(np.random.PCG64(seed))
    )
    # every node appears 12 times, so the noise cdf steps by exactly 1/8
    walks = [[(s + i) % 8 for i in range(12)] for s in range(8)]
    kw = dict(dim=8, window=3, negatives=4, epochs=2, seed=3, n_nodes=8, batch=50)
    ours = skipgram_train(walks, **kw)
    assert ours.tobytes() == oracles.skipgram_train(walks, **kw).tobytes()
    # each ring step chooses between two equal weights: cdf [0.5, 1.0]
    assert node2vec_walks(ring_graph(8), walk_len=12, walks_per_node=2, seed=4) == (
        oracles.node2vec_walks(ring_graph(8), walk_len=12, walks_per_node=2, seed=4)
    )


@pytest.mark.parametrize("name", ["dim", "window", "negatives", "epochs", "batch"])
def test_skipgram_rejects_a_count_below_one(name):
    # window 0 finds no pairs and epochs 0 trains none, so either would hand
    # back the untrained random initialisation
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
        skipgram_train([[0, 1, 0]], **{name: 0})


def test_skipgram_on_the_toy_ring_peaks_under_7_mb():
    # int32 (center, context) pairs and each batch's gathered output rows
    # dropped once read: 6.3 MB; int64 pairs and rows kept to the end of
    # the batch read 8.3 MB
    walks = node2vec_walks(ring_graph(8))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        skipgram_train(walks, n_nodes=8)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 7e6, peak / 1e6


# ---------------------------------------------------------------------------
# Embedding file I/O

def test_embeddings_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    emb = rng.normal(size=(3, 64))
    path = tmp_path / "emb.txt"
    save_embeddings(path, emb)
    assert np.array_equal(load_embeddings(path, n_nodes=3), emb)


def test_load_embeddings_zero_file(tmp_path):
    path = tmp_path / "emb.txt"
    save_embeddings(path, np.zeros((3, 64)))
    loaded = load_embeddings(path, n_nodes=3)
    assert loaded.shape == (3, 64) and not loaded.any()


def test_load_embeddings_row_count_error(tmp_path):
    path = tmp_path / "emb.txt"
    save_embeddings(path, np.zeros((2, 64)))
    with pytest.raises(EmbeddingFormatError, match="expected 3 rows, found 2"):
        load_embeddings(path, n_nodes=3)


def test_load_embeddings_column_count_error(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(EmbeddingFormatError, match="64"):
        load_embeddings(path, n_nodes=1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.5 1\nabc 3\n", r"emb\.txt:2: .*'abc'"),
        ("0.5 1\nabc 3\n", r"emb\.txt:2: non-numeric value 'abc'$"),
        ("0.5 1\n\n2 3 4\n", r"emb\.txt:3: expected 2 values, found 3$"),
        ("1 nan\n0 0\n", r"emb\.txt:1: non-finite value 'nan'"),
        ("0 0\n\n-inf 2\n", r"emb\.txt:3: non-finite value '-inf'"),
    ],
)
def test_load_embeddings_bad_value_names_file_and_line(tmp_path, text, message):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(EmbeddingFormatError, match=message):
        load_embeddings(path, n_nodes=2, dim=2)


def test_load_embeddings_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"0 0\n1 \xff\n")
    with pytest.raises(EmbeddingFormatError, match=r"emb\.txt: not UTF-8"):
        load_embeddings(path, n_nodes=2, dim=2)


_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1", "-0", "1e400", "inf", "NaN", "1_0", "0x1", ",", "#"]),
    st.text(max_size=4),
)
_LINES = st.lists(_TOKENS, max_size=3).map(" ".join)


@given(text=st.one_of(st.text(), st.lists(_LINES, max_size=4).map("\n".join)))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_embeddings_fuzz_raises_only_format_errors(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    try:
        emb = load_embeddings(path, n_nodes=2, dim=2)
    except EmbeddingFormatError as err:
        assert str(path) in str(err)
    else:
        assert emb.shape == (2, 2) and np.all(np.isfinite(emb))


# ---------------------------------------------------------------------------
# Temporal one-hot encoding

def test_onehot_first_index():
    (vec,) = temporal_encoding(0, 1, slots_per_day=288, start_weekday=0)
    assert vec[0] == 1.0 and vec[288] == 1.0
    assert vec.sum() == 2.0


def test_onehot_wraps_to_next_weekday():
    (vec,) = temporal_encoding(288, 1, slots_per_day=288, start_weekday=0)
    assert vec[0] == 1.0 and vec[289] == 1.0


def test_onehot_width_for_5_minute_slots():
    assert temporal_encoding(0, 1, 288, 0).shape == (1, 295)


def test_onehot_width_for_15_minute_slots():
    assert temporal_encoding(0, 1, 96, 2).shape == (1, 103)


def test_onehot_cycles():
    slots = 12
    (a,) = temporal_encoding(5, 1, slots, start_weekday=3)
    assert np.array_equal(a, temporal_encoding(5 + slots * 7, 1, slots, 3)[0])
    (week_only,) = temporal_encoding(5 + slots, 1, slots, 3)
    assert np.argmax(a[:slots]) == np.argmax(week_only[:slots])
    assert np.argmax(a[slots:]) != np.argmax(week_only[slots:])


def test_temporal_encoding_rows():
    enc = temporal_encoding(t0=10, steps=4, slots_per_day=12, start_weekday=0)
    assert enc.shape == (4, 19)
    assert np.all(enc.sum(axis=1) == 2.0)


@pytest.mark.parametrize("t0", [7, [0, 95, 96 * 6 + 3], [[1, 2], [600, 1000]], range(3)])
def test_temporal_encoding_over_starts_matches_one_index_at_a_time(t0):
    slots, steps, weekday = 96, 5, 4
    enc = temporal_encoding(t0, steps, slots, weekday)
    assert enc.shape == np.shape(t0) + (steps, slots + 7)
    for start in np.ndindex(np.shape(t0)):
        for i in range(steps):
            t = int(np.asarray(t0)[start]) + i
            want = np.zeros(slots + 7)
            want[t % slots] = 1.0
            want[slots + (t // slots + weekday) % 7] = 1.0
            assert np.array_equal(enc[start + (i,)], want)


def test_temporal_encoding_rejects_an_empty_day():
    with pytest.raises(ValueError, match="slots_per_day"):
        temporal_encoding(0, 1, 0, 0)


# ---------------------------------------------------------------------------
# GRU

def _gru_layer(rng, f, zero=False) -> GruLayerParams:
    def mk(shape):
        data = np.zeros(shape) if zero else rng.uniform(-0.5, 0.5, shape)
        return T.param(data)

    return GruLayerParams(
        w_xr=mk((f, f)), w_hr=mk((f, f)), w_xu=mk((f, f)), w_hu=mk((f, f)),
        w_xh=mk((f, f)), w_hh=mk((f, f)), b_r=mk((f,)), b_u=mk((f,)),
        b_h=mk((f,)),
    )


def gru_reference(x, h, p):
    """Literal transcription of the gate equations in plain numpy."""
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    r = sig(x @ p.w_xr.data + h @ p.w_hr.data + p.b_r.data)
    u = sig(x @ p.w_xu.data + h @ p.w_hu.data + p.b_u.data)
    cand = np.tanh(x @ p.w_xh.data + (r * h) @ p.w_hh.data + p.b_h.data)
    return u * h + (1.0 - u) * cand


def test_gru_cell_zero_params_halves_hidden():
    rng = np.random.default_rng(30)
    f = 4
    h = Tensor(rng.normal(size=(3, f)))
    layer = _gru_layer(rng, f, zero=True)
    out = gru_cell_node(Tensor(np.zeros((3, f))), h, layer)
    assert np.allclose(out.data, 0.5 * h.data, atol=0)


def test_gru_cell_zero_params_zero_hidden():
    rng = np.random.default_rng(31)
    f = 4
    layer = _gru_layer(rng, f, zero=True)
    out = gru_cell_node(Tensor(np.zeros((3, f))), Tensor(np.zeros((3, f))), layer)
    assert np.array_equal(out.data, np.zeros((3, f)))


def test_gru_cell_matches_reference():
    rng = np.random.default_rng(32)
    f = 5
    layer = _gru_layer(rng, f)
    x = rng.normal(size=(4, f))
    h = rng.normal(size=(4, f))
    out = gru_cell_node(Tensor(x), Tensor(h), layer)
    assert np.max(np.abs(out.data - gru_reference(x, h, layer))) < 1e-12


def test_gru_cell_gradients():
    rng = np.random.default_rng(33)
    f = 3
    layer = _gru_layer(rng, f)
    x = T.param(rng.normal(size=(2, f)))
    h = T.param(rng.normal(size=(2, f)))
    c = Tensor(rng.normal(size=(2, f)))

    T.backward(ops.sum_(ops.mul(gru_cell_node(x, h, layer), c)))

    def forward():
        return (gru_cell_node(x, h, layer).data * c.data).sum()

    for t in [x, h, *layer.named("gru").values()]:
        assert grad_close(t.grad, numeric_grad(forward, t.data))


def _cell_grads(cell, x, h, layer, c):
    """Output and every input's gradient of sum(cell(x, h) * c)."""
    inputs = [x, h, *layer.named("gru").values()]
    for t in inputs:
        t.grad = None
    out = cell(x, h, layer)
    T.backward(ops.sum_(ops.mul(out, c)))
    return out.data, [t.grad for t in inputs]


@pytest.mark.parametrize("shape", [(4, 5), (2, 3, 5)], ids=["nodes", "batch"])
def test_fused_gru_cell_matches_composed_cell(shape):
    rng = np.random.default_rng(40)
    layer = _gru_layer(rng, shape[-1])
    x = T.param(rng.normal(size=shape))
    h = T.param(rng.normal(size=shape))
    c = Tensor(rng.normal(size=shape))
    out, grads = _cell_grads(gru_cell_node, x, h, layer, c)
    want_out, want_grads = _cell_grads(oracles.gru_cell, x, h, layer, c)
    assert np.array_equal(out, want_out)
    for got, want in zip(grads, want_grads):
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12


def test_fused_gru_cell_with_input_as_hidden_state_matches_composed_cell():
    # a one-layer rollout feeds the hidden state back as the next input
    rng = np.random.default_rng(41)
    layer = _gru_layer(rng, 4)
    h = T.param(rng.normal(size=(3, 4)))
    c = Tensor(rng.normal(size=(3, 4)))
    out, grads = _cell_grads(gru_cell_node, h, h, layer, c)
    want_out, want_grads = _cell_grads(oracles.gru_cell, h, h, layer, c)
    assert np.array_equal(out, want_out)
    for got, want in zip(grads, want_grads):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("untracked", ["w_xr", "w_hu", "w_xh", "w_hh", "b_u", "hidden"])
def test_fused_gru_cell_with_an_untracked_input_matches_composed_cell(untracked):
    rng = np.random.default_rng(45)
    layer = _gru_layer(rng, 4)
    x = T.param(rng.normal(size=(2, 3, 4)))
    h = T.param(rng.normal(size=(2, 3, 4)))
    if untracked == "hidden":
        h = Tensor(h.data)
    else:
        setattr(layer, untracked, Tensor(getattr(layer, untracked).data))
    c = Tensor(rng.normal(size=(2, 3, 4)))
    out, grads = _cell_grads(gru_cell_node, x, h, layer, c)
    want_out, want_grads = _cell_grads(oracles.gru_cell, x, h, layer, c)
    assert np.array_equal(out, want_out)
    for t, got, want in zip([x, h, *layer.named("gru").values()], grads, want_grads):
        if t.requires_grad:
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12
        else:
            assert got is None and want is None


def test_gru_cell_vjp_repeats_to_the_byte():
    rng = np.random.default_rng(42)
    layer = _gru_layer(rng, 3)
    x = T.param(rng.normal(size=(2, 3)))
    h = Tensor(rng.normal(size=(2, 3)))  # untracked, so the vjp may skip its share
    inner = gru_cell_node(x, h, layer)
    outer = gru_cell_node(inner, h, layer)
    for node in (outer, inner):
        assert_vjp_repeats(node, rng.normal(size=node.shape))


def test_gru_cell_backward_frees_its_pre_activation_grads():
    rng = np.random.default_rng(43)
    f = 16
    layer = _gru_layer(rng, f)
    h = x = T.param(rng.normal(size=(64, f)))
    for _ in range(5):
        h = gru_cell_node(x, h, layer)
    loss = ops.sum_(h)
    leaves = [x, *layer.named("gru").values()]
    tracemalloc.start()
    try:
        T.backward(loss)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what backward leaves allocated is the leaves' gradients; a kept
    # (64, 16) pre-activation gradient per cell would add 8 KB each
    assert held <= sum(t.grad.nbytes for t in leaves) + 4096


@pytest.mark.parametrize("n_layers", [1, 2])
def test_tracked_gru_stack_keeps_three_gate_arrays_per_cell(n_layers):
    # each cell's vjp keeps R, U and C and rebuilds R * H_prev, which would
    # add a fourth (n, f) array per cell; X and H_prev are the input's steps
    # and states the graph holds anyway (a lower layer's, kept by the layer
    # above, count once)
    rng = np.random.default_rng(46)
    f, n, steps = 32, 64, 6
    layers = [_gru_layer(rng, f) for _ in range(n_layers)]
    x = T.param(rng.normal(size=(steps, n, f)))
    h0 = [Tensor(np.zeros((n, f))) for _ in layers]
    tracemalloc.start()
    try:
        out = gru_stack(x, h0, layers)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = n * f * 8
    cells = steps * n_layers
    assert held <= out.data.nbytes + (n_layers - 1) * steps * state + cells * (3 * state + 2048)


def test_gru_cell_under_no_grad_builds_no_node():
    rng = np.random.default_rng(44)
    layer = _gru_layer(rng, 3)
    x = T.param(rng.normal(size=(2, 3)))
    with T.no_grad():
        out = gru_cell_node(x, x, layer)
    assert out.parents == () and not out.requires_grad


def test_gru_sequence_t1_reduces_to_cell():
    rng = np.random.default_rng(34)
    f, n = 4, 3
    layers = [_gru_layer(rng, f), _gru_layer(rng, f)]
    x = Tensor(rng.normal(size=(1, n, f)))
    h0 = [Tensor(np.zeros((n, f))) for _ in layers]

    outs, finals = gru_sequence(x, h0, layers)
    step1 = gru_cell_node(T._slice(x, 0), h0[0], layers[0])
    step2 = gru_cell_node(step1, h0[1], layers[1])
    assert np.array_equal(outs.data[0], step2.data)
    assert np.array_equal(finals[0].data, step1.data)
    assert np.array_equal(finals[1].data, step2.data)


def test_gru_sequence_causality():
    rng = np.random.default_rng(35)
    f, n, steps = 4, 2, 6
    layers = [_gru_layer(rng, f)]
    x = rng.normal(size=(steps, n, f))
    h0 = [Tensor(np.zeros((n, f)))]

    base, _ = gru_sequence(Tensor(x), h0, layers)
    perturbed = x.copy()
    perturbed[-1] += rng.normal(size=(n, f))
    out, _ = gru_sequence(Tensor(perturbed), h0, layers)
    assert np.array_equal(base.data[:-1], out.data[:-1])
    assert not np.array_equal(base.data[-1], out.data[-1])


def test_gru_sequence_causality_random_trials():
    rng = np.random.default_rng(36)
    f, n, steps = 3, 2, 5
    layers = [_gru_layer(rng, f)]
    h0 = [Tensor(np.zeros((n, f)))]
    for _ in range(20):
        x = rng.normal(size=(steps, n, f))
        t_cut = int(rng.integers(1, steps))
        perturbed = x.copy()
        perturbed[t_cut:] += rng.normal(size=(steps - t_cut, n, f))
        a, _ = gru_sequence(Tensor(x), h0, layers)
        b, _ = gru_sequence(Tensor(perturbed), h0, layers)
        assert np.max(np.abs(a.data[:t_cut] - b.data[:t_cut])) <= 1e-12


def test_gru_two_layers_equal_manual_chaining():
    rng = np.random.default_rng(37)
    f, n, steps = 4, 3, 5
    layers = [_gru_layer(rng, f), _gru_layer(rng, f)]
    x = Tensor(rng.normal(size=(steps, n, f)))
    h0 = [Tensor(np.zeros((n, f))), Tensor(np.zeros((n, f)))]

    stacked, finals = gru_sequence(x, h0, layers)
    mid, mid_final = gru_sequence(x, [h0[0]], [layers[0]])
    top, top_final = gru_sequence(mid, [h0[1]], [layers[1]])
    assert np.array_equal(stacked.data, top.data)
    assert np.array_equal(finals[0].data, mid_final[0].data)
    assert np.array_equal(finals[1].data, top_final[0].data)


def test_gru_sequence_over_a_batch_equals_per_sample_calls():
    rng = np.random.default_rng(39)
    f, n, steps = 4, 3, 5
    layers = [_gru_layer(rng, f), _gru_layer(rng, f)]
    x = rng.normal(size=(2, steps, n, f))
    h0 = rng.normal(size=(2, n, f))
    outs, finals = gru_sequence(Tensor(x), [Tensor(h0), Tensor(h0)], layers)
    assert outs.shape == x.shape and finals[1].shape == (2, n, f)
    for b in range(2):
        one, one_finals = gru_sequence(Tensor(x[b]), [Tensor(h0[b]), Tensor(h0[b])], layers)
        assert np.max(np.abs(outs.data[b] - one.data)) <= 1e-12
        assert np.max(np.abs(finals[1].data[b] - one_finals[1].data)) <= 1e-12


def _sequence_run(run, x, h0, layers, c):
    """Outputs, final states and every input's gradient of a loss that reads
    each output and each final state through the weights ``c``."""
    inputs = [x, *h0, *(p for layer in layers for p in layer.named("gru").values())]
    for t in inputs:
        t.grad = None
    out, finals = run(x, h0, layers)
    loss = ops.sum_(ops.mul(out, c[0]))
    for final, c_l in zip(finals, c[1:]):
        loss = ops.add(loss, ops.sum_(ops.mul(final, c_l)))
    T.backward(loss)
    return [out.data, *(f.data for f in finals)], [t.grad for t in inputs]


@pytest.mark.parametrize("untracked", [None, "h0", *GruLayerParams.__dataclass_fields__])
@pytest.mark.parametrize("shape", [(5, 3, 4), (2, 5, 3, 4), (2, 2, 3, 2, 4)],
                         ids=["steps", "batch", "two_batch_axes"])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_gru_layer_node_matches_the_per_step_form_to_the_byte(n_layers, shape, untracked):
    # one node per layer against a slice, a fused cell per step and layer and
    # a concat: outputs, final states and every gradient byte for byte
    rng = np.random.default_rng(46)
    layers = [_gru_layer(rng, shape[-1]) for _ in range(n_layers)]
    x = T.param(rng.normal(size=shape))
    h0 = [T.param(rng.normal(size=shape[:-3] + shape[-2:])) for _ in layers]
    if untracked == "h0":
        h0[0] = Tensor(h0[0].data)
    elif untracked is not None:
        setattr(layers[0], untracked, Tensor(getattr(layers[0], untracked).data))
    c = [Tensor(rng.normal(size=shape))] + [Tensor(rng.normal(size=h.shape)) for h in h0]
    outs, grads = _sequence_run(gru_sequence, x, h0, layers, c)
    want_outs, want_grads = _sequence_run(oracles.gru_sequence, x, h0, layers, c)
    for got, want in zip(outs, want_outs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for got, want in zip(grads, want_grads):
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_gru_sequence_builds_one_node_per_layer():
    rng = np.random.default_rng(47)
    layers = [_gru_layer(rng, 4), _gru_layer(rng, 4)]
    x = T.param(rng.normal(size=(6, 3, 4)))
    out, finals = gru_sequence(x, [Tensor(np.zeros((3, 4)))] * 2, layers)
    bottom = out.parents[0][0]
    assert [t for t, _ in bottom.parents] == [x, *layers[0].named("gru").values()]
    assert [t for t, _ in out.parents] == [bottom, *layers[1].named("gru").values()]
    assert [f.parents for f in finals] == [((bottom, 0),), ((out, 0),)]


def test_gru_sequence_rejects_a_hidden_state_of_another_shape():
    rng = np.random.default_rng(48)
    with pytest.raises(ShapeError, match="vs hidden"):
        gru_sequence(Tensor(np.zeros((2, 5, 3, 4))), [Tensor(np.zeros((5, 3, 4)))],
                     [_gru_layer(rng, 4)])


def test_no_grad_gru_sequence_holds_no_more_than_the_per_step_form():
    # the reference block's GRU on 228 nodes, as no-grad predict runs it: a
    # step's gate arrays must not outlive it, nor a layer's final-state copy
    # the next layer's run
    rng = np.random.default_rng(49)
    f, n = 128, 228
    layers = [_gru_layer(rng, f), _gru_layer(rng, f)]
    x = T.param(rng.normal(size=(1, 12, n, f)))
    h0 = [Tensor(np.zeros((1, n, f))) for _ in layers]
    held = []  # (bytes held by the result, peak bytes) of each form
    for run in (gru_sequence, oracles.gru_sequence):
        with T.no_grad():
            tracemalloc.start()
            try:
                out = run(x, h0, layers)
                held.append(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
        assert not out[0].parents
        del out
    (layer_held, layer_peak), (per_step_held, per_step_peak) = held
    assert layer_held <= per_step_held and layer_peak <= per_step_peak


def test_gru_hidden_stays_in_unit_interval():
    rng = np.random.default_rng(38)
    f, n, steps = 4, 3, 40
    layers = [_gru_layer(rng, f)]
    x = Tensor(rng.uniform(-1, 1, (steps, n, f)))
    outs, _ = gru_sequence(x, [Tensor(np.zeros((n, f)))], layers)
    assert np.all(np.abs(outs.data) < 1.0)
