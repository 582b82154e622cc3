"""Attention kernels: layout, oracle equivalences, stabilization, gradients."""


import tracemalloc

import numpy as np
import pytest

from flowcast import tensor as T
from flowcast.attention import (
    AttentionParams,
    DegenerateAttentionError,
    linear_attention,
    multi_head_attention,
    softmax_attention,
)
from flowcast.tensor import ShapeError, Tensor

import oracles
import ops
from gradcheck import assert_vjp_repeats, grad_close, numeric_grad
from oracles import similarity_attention


def brute_force_kernel_attention(q, k, v):
    """Un-rewritten kernelized attention: explicit double sum per query."""
    m = q.shape[0]
    out = np.zeros((m, v.shape[1]))
    for i in range(m):
        num = np.zeros(v.shape[1])
        den = 0.0
        for j in range(k.shape[0]):
            w = float(np.exp(q[i]) @ np.exp(k[j]))
            num += w * v[j]
            den += w
        out[i] = num / den
    return out


# ---------------------------------------------------------------------------
# Joint token layout: multi_head_attention attends over every (step, node)
# pair of a (..., T, N, F) sample as one token

def test_joint_tokens_round_trip():
    # (..., T, N, F) features attend as their (..., 1, T*N, F) tokens do,
    # and come back in their own shape
    rng = np.random.default_rng(1)
    params = _mha_params(rng, heads=1, head_dim=5)
    for shape in [(3, 4, 5), (2, 3, 4, 5)]:  # one sample, then a batch
        x = rng.normal(size=shape)
        out = multi_head_attention(Tensor(x), None, params)
        flat = multi_head_attention(Tensor(x.reshape(shape[:-3] + (1, 12, 5))), None, params)
        assert out.shape == shape
        assert out.data.tobytes() == flat.data.reshape(shape).tobytes()


def test_joint_tokens_time_major_order():
    # a NaN query at step 1, node 0 of 2 nodes is token 2
    x = np.zeros((2, 2, 3))
    x[1, 0] = np.nan
    params = _mha_params(np.random.default_rng(2), heads=1, head_dim=3)
    with pytest.raises(DegenerateAttentionError, match="query row 2$"):
        multi_head_attention(Tensor(x), Tensor(np.zeros((1, 3, 3))), params)


def test_joint_tokens_preserve_sum():
    # folding the token gradients back into (..., T, N, F) keeps every entry
    rng = np.random.default_rng(2)
    params = _mha_params(rng, heads=2, head_dim=1)
    x = T.param(rng.normal(size=(4, 3, 2)))
    flat = T.param(x.data.reshape(1, 12, 2))
    c = rng.normal(size=(4, 3, 2))
    for t in (x, flat):
        out = multi_head_attention(t, None, params)
        T.backward(ops.sum_(ops.mul(out, Tensor(c.reshape(t.shape)))))
    assert x.grad.shape == x.shape and x.grad.sum() == flat.grad.sum()
    assert x.grad.tobytes() == flat.grad.tobytes()


# ---------------------------------------------------------------------------
# Quadratic reference and similarity form

def test_softmax_attention_single_token_returns_value():
    rng = np.random.default_rng(3)
    q = Tensor(rng.normal(size=(1, 4)))
    k = Tensor(rng.normal(size=(1, 4)))
    v = Tensor(rng.normal(size=(1, 4)))
    assert np.allclose(softmax_attention(q, k, v).data, v.data, atol=1e-15)


def test_softmax_attention_identical_queries():
    rng = np.random.default_rng(4)
    q = Tensor(np.tile(rng.normal(size=(1, 4)), (5, 1)))
    k = Tensor(rng.normal(size=(6, 4)))
    v = Tensor(rng.normal(size=(6, 3)))
    out = softmax_attention(q, k, v).data
    assert np.max(np.abs(out - out[0])) == 0.0


def test_softmax_attention_equals_similarity_form():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(8, 4))
    k = rng.normal(size=(8, 4))
    v = rng.normal(size=(8, 4))
    direct = softmax_attention(Tensor(q), Tensor(k), Tensor(v)).data
    generic = similarity_attention(q, k, v)  # default sim = exp(qk/sqrt(d))
    assert np.max(np.abs(direct - generic)) < 1e-10


@pytest.mark.parametrize("lead_q, lead_kv", [((), ()), ((3,), ()), ((2, 3), (3,))])
def test_softmax_attention_matches_the_composed_graph_form(lead_q, lead_kv):
    # the numpy reference against the same steps as autodiff nodes:
    # scores, 1/sqrt(d) scale, max-shifted softmax, @ v
    rng = np.random.default_rng(6)
    q = T.param(rng.uniform(-2, 2, lead_q + (7, 4)))
    k = T.param(rng.uniform(-2, 2, lead_kv + (9, 4)))
    v = T.param(rng.normal(size=lead_kv + (9, 3)))
    scores = T.scale(ops.matmul(q, ops.transpose(k)), 1.0 / np.sqrt(4))
    composed = ops.matmul(ops.softmax(scores, axis=-1), v)
    out = softmax_attention(q, k, v)
    assert out.shape == composed.shape
    assert np.max(np.abs(out.data - composed.data)) <= 1e-12
    assert not out.requires_grad and out.vjp is None


def test_attention_dim_mismatch():
    with pytest.raises(ShapeError):
        softmax_attention(
            Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))
        )


@pytest.mark.parametrize("kernel", [softmax_attention, linear_attention])
def test_attention_batch_axes_mismatch(kernel):
    with pytest.raises(ShapeError, match="batch axes"):
        kernel(
            Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((3, 6, 4))), Tensor(np.zeros((3, 6, 4)))
        )


# ---------------------------------------------------------------------------
# Linear attention

def test_linear_attention_single_token_returns_value():
    rng = np.random.default_rng(7)
    q = Tensor(rng.normal(size=(1, 4)))
    k = Tensor(rng.normal(size=(1, 4)))
    v = Tensor(rng.normal(size=(1, 5)))
    assert np.allclose(linear_attention(q, k, v).data, v.data, atol=1e-12)


def test_linear_attention_identical_queries():
    rng = np.random.default_rng(8)
    q = Tensor(np.tile(rng.normal(size=(1, 4)), (6, 1)))
    k = Tensor(rng.normal(size=(9, 4)))
    v = Tensor(rng.normal(size=(9, 3)))
    out = linear_attention(q, k, v).data
    assert np.max(np.abs(out - out[0])) == 0.0


def test_linear_attention_matches_double_sum_oracle():
    rng = np.random.default_rng(9)
    q = rng.uniform(-2, 2, (32, 8))
    k = rng.uniform(-2, 2, (32, 8))
    v = rng.normal(size=(32, 8))
    fast = linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
    slow = brute_force_kernel_attention(q, k, v)
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_linear_attention_equals_similarity_form():
    rng = np.random.default_rng(10)
    q = rng.uniform(-2, 2, (16, 4))
    k = rng.uniform(-2, 2, (16, 4))
    v = rng.normal(size=(16, 4))
    fast = linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
    generic = similarity_attention(
        q, k, v, sim=lambda qi, kj: float(np.exp(qi) @ np.exp(kj))
    )
    assert np.max(np.abs(fast - generic)) < 1e-10


def test_stabilization_shifts_cancel():
    rng = np.random.default_rng(11)
    for _ in range(10):
        q = rng.uniform(-5, 5, (12, 6))
        k = rng.uniform(-5, 5, (12, 6))
        v = rng.normal(size=(12, 6))
        with_shift = linear_attention(Tensor(q), Tensor(k), Tensor(v)).data
        without = similarity_attention(
            q, k, v, sim=lambda qi, kj: float(np.exp(qi) @ np.exp(kj))
        )
        assert np.max(np.abs(with_shift - without)) < 1e-10


def test_stabilized_attention_survives_large_inputs():
    rng = np.random.default_rng(12)
    q = Tensor(rng.uniform(400, 700, (4, 4)))
    k = Tensor(rng.uniform(400, 700, (4, 4)))
    v = Tensor(rng.normal(size=(4, 3)))
    out = linear_attention(q, k, v).data
    assert np.all(np.isfinite(out))


def test_linear_attention_convexity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        d = int(rng.integers(1, 10))
        q = Tensor(rng.uniform(-3, 3, (m, d)))
        k = Tensor(rng.uniform(-3, 3, (m, d)))
        v = rng.normal(size=(m, d))
        out = linear_attention(q, k, Tensor(v)).data
        lo = v.min(axis=0) - 1e-10
        hi = v.max(axis=0) + 1e-10
        assert np.all(out >= lo) and np.all(out <= hi)


def test_linear_attention_degenerate_normalizer():
    q = Tensor(np.full((2, 2), np.nan))
    k = Tensor(np.zeros((2, 2)))
    v = Tensor(np.ones((2, 2)))
    with pytest.raises(DegenerateAttentionError, match="query row"):
        linear_attention(q, k, v)


def test_degenerate_normalizer_names_the_sample():
    q = np.zeros((3, 4, 2))
    q[1, 2] = np.nan
    with pytest.raises(DegenerateAttentionError, match="sample 1, query row 2"):
        linear_attention(Tensor(q), Tensor(np.zeros((3, 4, 2))), Tensor(np.ones((3, 4, 2))))


def test_batched_linear_attention_equals_stacked_calls():
    rng = np.random.default_rng(19)
    q = rng.uniform(-2, 2, (2, 7, 4))
    k = rng.uniform(-2, 2, (2, 5, 4))
    v = rng.normal(size=(2, 5, 2))
    # keys near +700 in sample 0 and -700 in sample 1: one key shift for
    # the whole batch would underflow every exp(k - shift) of sample 1
    for offset in (0.0, 700.0):
        keys = k + np.array([offset, -offset])[:, None, None]
        batched = linear_attention(Tensor(q), Tensor(keys), Tensor(v)).data
        for b in range(2):
            single = linear_attention(Tensor(q[b]), Tensor(keys[b]), Tensor(v[b])).data
            assert np.max(np.abs(batched[b] - single)) <= 1e-12


def test_linear_attention_gradients():
    rng = np.random.default_rng(14)
    q = T.param(rng.uniform(-1, 1, (5, 3)))
    k = T.param(rng.uniform(-1, 1, (5, 3)))
    v = T.param(rng.uniform(-1, 1, (5, 3)))
    c = Tensor(rng.normal(size=(5, 3)))

    T.backward(ops.sum_(ops.mul(linear_attention(q, k, v), c)))

    def forward():
        return (linear_attention(q, k, v).data * c.data).sum()

    for t in (q, k, v):
        assert grad_close(t.grad, numeric_grad(forward, t.data))


# ---------------------------------------------------------------------------
# Multi-head wrapper

def _mha_params(rng, heads, head_dim, identity=False):
    def head(shape):
        if identity:
            return Tensor(np.eye(*shape))
        return T.param(rng.uniform(-0.5, 0.5, shape))

    model_dim = heads * head_dim
    return AttentionParams(
        w_q=[head((model_dim, head_dim)) for _ in range(heads)],
        w_k=[head((model_dim, head_dim)) for _ in range(heads)],
        w_v=[head((model_dim, head_dim)) for _ in range(heads)],
        w_o=head((model_dim, model_dim)),
    )


def test_single_head_identity_projections_reduce_to_linear_attention():
    rng = np.random.default_rng(15)
    params = _mha_params(rng, heads=1, head_dim=4, identity=True)
    x = Tensor(rng.uniform(-1, 1, (1, 6, 4)))
    via_mha = multi_head_attention(x, None, params)
    direct = linear_attention(x, x, x)
    assert np.max(np.abs(via_mha.data - direct.data)) < 1e-14


def test_batched_mha_equals_stacked_calls():
    rng = np.random.default_rng(21)
    params = _mha_params(rng, heads=2, head_dim=3)
    x = rng.normal(size=(3, 1, 5, 6))
    kv = rng.normal(size=(3, 1, 4, 6))
    batched = multi_head_attention(Tensor(x), Tensor(kv), params).data
    for b in range(3):
        single = multi_head_attention(Tensor(x[b]), Tensor(kv[b]), params).data
        assert np.max(np.abs(batched[b] - single)) <= 1e-12


def test_mha_output_shape_with_cross_inputs():
    rng = np.random.default_rng(16)
    params = _mha_params(rng, heads=2, head_dim=3)
    x = Tensor(rng.normal(size=(1, 5, 6)))
    for kv_rows in (1, 4, 9):
        kv = Tensor(rng.normal(size=(1, kv_rows, 6)))
        assert multi_head_attention(x, kv, params).shape == (1, 5, 6)


def test_mha_rejects_wrong_kv_width():
    rng = np.random.default_rng(17)
    params = _mha_params(rng, heads=2, head_dim=3)
    with pytest.raises(ShapeError):
        multi_head_attention(
            Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(5, 7))), params
        )


def test_mha_rejects_wrong_query_width():
    rng = np.random.default_rng(17)
    params = _mha_params(rng, heads=2, head_dim=3)
    with pytest.raises(ShapeError, match="token width 7"):
        multi_head_attention(Tensor(rng.normal(size=(5, 7))), None, params)
    with pytest.raises(ShapeError, match=r"\(\.\.\., T, N, F\) features, got \(6,\)"):
        multi_head_attention(Tensor(rng.normal(size=6)), None, params)


@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_mha_rejects_rank_2_tokens_naming_the_feature_layout(cross):
    rng = np.random.default_rng(17)
    params = _mha_params(rng, heads=2, head_dim=3)
    x, kv = Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(2, 4, 6)))
    if cross:  # the key/value source is the rank-2 one
        x, kv = kv, x
    with pytest.raises(ShapeError, match=r"\(\.\.\., T, N, F\) features"):
        multi_head_attention(x, kv if cross else None, params)


def test_mha_gradients():
    rng = np.random.default_rng(18)
    params = _mha_params(rng, heads=2, head_dim=2)
    x = T.param(rng.uniform(-1, 1, (1, 4, 4)))
    c = Tensor(rng.normal(size=(1, 4, 4)))

    T.backward(ops.sum_(ops.mul(multi_head_attention(x, None, params), c)))

    def forward():
        return (multi_head_attention(x, None, params).data * c.data).sum()

    for t in [x, params.w_o, params.w_q[0], params.w_k[1], params.w_v[0]]:
        assert grad_close(t.grad, numeric_grad(forward, t.data))


# ---------------------------------------------------------------------------
# The fused single-node attention against the composed autodiff form it
# replaced (tests/oracles.py)

def _out_and_grads(fn, inputs, c):
    """Output and every input's gradient of sum(fn() * c)."""
    for t in inputs:
        t.grad = None
    out = fn()
    T.backward(ops.sum_(ops.mul(out, c)))
    return out.data, [t.grad for t in inputs]


def _mha_case(rng, cross, batch):
    # (B, 1, T*N, F) features, the joint tokens of 3 steps of 4 nodes, which
    # the token-layout oracle reads with (B, 1) as its batch axes; cross
    # attention reads 2 steps of keys and values
    params = _mha_params(rng, heads=2, head_dim=3)
    x = T.param(rng.normal(size=(batch, 1, 12, 6)))
    kv = T.param(rng.normal(size=(batch, 1, 8, 6))) if cross else None
    inputs = [x, *([kv] if cross else []), *params.named("attn").values()]
    return x, kv, params, inputs


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_fused_mha_matches_composed_heads(cross, batch):
    rng = np.random.default_rng(70)
    x, kv, params, inputs = _mha_case(rng, cross, batch)
    c = Tensor(rng.normal(size=x.shape))
    out, grads = _out_and_grads(lambda: multi_head_attention(x, kv, params), inputs, c)
    want, want_grads = _out_and_grads(
        lambda: oracles.multi_head_attention(x, kv, params), inputs, c
    )
    assert out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-12

    def forward():
        return (multi_head_attention(x, kv, params).data * c.data).sum()

    for t, g in zip(inputs, grads):
        assert grad_close(g, numeric_grad(forward, t.data))


@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_fused_mha_over_features_matches_composed_heads_over_their_tokens(cross):
    # a (B, T, N, F) call against the oracle on its (B, T*N, F) joint tokens;
    # cross attention reads 2 steps of keys and values
    rng = np.random.default_rng(78)
    params = _mha_params(rng, heads=2, head_dim=3)
    x = T.param(rng.normal(size=(2, 3, 4, 6)))
    kv = T.param(rng.normal(size=(2, 2, 4, 6))) if cross else None
    sources = [x, kv] if cross else [x]
    tokens = [T.param(t.data.reshape(2, -1, 6)) for t in sources]
    weights = list(params.named("attn").values())
    c = rng.normal(size=x.shape)
    out, grads = _out_and_grads(
        lambda: multi_head_attention(x, kv, params), sources + weights, Tensor(c)
    )
    want, want_grads = _out_and_grads(
        lambda: oracles.multi_head_attention(tokens[0], tokens[1] if cross else None, params),
        tokens + weights, Tensor(c.reshape(2, 12, 6)),
    )
    assert out.shape == x.shape and out.tobytes() == want.reshape(x.shape).tobytes()
    for got, ref in zip(grads, want_grads):
        assert np.max(np.abs(got - ref.reshape(got.shape))) <= 1e-12


@pytest.mark.parametrize("shapes", [
    ((5, 3), (4, 3), (4, 2)),
    ((2, 5, 3), (2, 4, 3), (2, 4, 2)),
    ((2, 5, 3), (4, 3), (4, 2)),  # shared keys and values broadcast over the batch
], ids=["plain", "batch", "broadcast"])
def test_fused_linear_attention_matches_composed_form(shapes):
    rng = np.random.default_rng(71)
    q, k, v = (T.param(rng.uniform(-1, 1, s)) for s in shapes)
    c = Tensor(rng.normal(size=shapes[0][:-1] + (2,)))
    out, grads = _out_and_grads(lambda: linear_attention(q, k, v), [q, k, v], c)
    want, want_grads = _out_and_grads(lambda: oracles.linear_attention(q, k, v), [q, k, v], c)
    assert out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("field, head", [("w_q", 0), ("w_k", 1), ("w_v", 0), ("w_o", None)])
@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_fused_mha_with_an_untracked_weight_matches_composed_heads(cross, field, head):
    rng = np.random.default_rng(75)
    x, kv, params, _ = _mha_case(rng, cross, 2)
    if head is None:
        params.w_o = Tensor(params.w_o.data)
    else:
        getattr(params, field)[head] = Tensor(getattr(params, field)[head].data)
    inputs = [x, *([kv] if cross else []), *params.named("attn").values()]
    c = Tensor(rng.normal(size=x.shape))
    _, grads = _out_and_grads(lambda: multi_head_attention(x, kv, params), inputs, c)
    _, want_grads = _out_and_grads(lambda: oracles.multi_head_attention(x, kv, params), inputs, c)
    for t, got, ref in zip(inputs, grads, want_grads):
        if t.requires_grad:
            assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-12
        else:
            assert got is None and ref is None


@pytest.mark.parametrize("q, k, v, match", [
    ([3, 3], [3, 3], [3, 3, 3], r"2 query, 2 key and 3 value heads of widths \[3\]"),
    ([3, 3], [3], [3, 3], r"2 query, 1 key and 2 value heads"),
    ([3, 3], [3, 3], [3, 4], r"2 query, 2 key and 2 value heads of widths \[3, 4\]"),
    ([], [], [], r"0 query, 0 key and 0 value heads"),
])
def test_mha_rejects_head_lists_that_do_not_match(q, k, v, match):
    rng = np.random.default_rng(76)
    params = AttentionParams(
        *([T.param(rng.normal(size=(6, w))) for w in widths] for widths in (q, k, v)),
        w_o=T.param(rng.normal(size=(6, 6))),
    )
    with pytest.raises(ShapeError, match=match):
        multi_head_attention(Tensor(rng.normal(size=(1, 5, 6))), None, params)


def test_mha_inference_peak_memory_stays_near_its_output():
    # the forward holds one head's q, k and v at a time beside the output:
    # 2.4x its bytes here, where projecting every head at once read 5.4x
    rng = np.random.default_rng(77)
    params = AttentionParams(
        w_q=[Tensor(rng.uniform(-0.1, 0.1, (64, 8))) for _ in range(8)],
        w_k=[Tensor(rng.uniform(-0.1, 0.1, (64, 8))) for _ in range(8)],
        w_v=[Tensor(rng.uniform(-0.1, 0.1, (64, 8))) for _ in range(8)],
        w_o=Tensor(rng.uniform(-0.1, 0.1, (64, 64))),
    )
    x = T.param(rng.normal(size=(1, 2048, 64)))
    tracemalloc.start()
    try:
        with T.no_grad():
            out = multi_head_attention(x, None, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.data.nbytes


@pytest.mark.parametrize("residual", [False, True])
def test_tracked_mha_keeps_each_heads_arrays_but_not_the_concatenated_heads(residual):
    # per head phi(q), phi(k) and v, the summary, normalizer and denominators;
    # the backward rebuilds each head's output from them, so keeping the
    # concatenated heads would add (M, heads * d) floats
    rng = np.random.default_rng(78)
    heads, d, width = 4, 8, 32
    params = AttentionParams(
        *([T.param(rng.uniform(-0.1, 0.1, (width, d))) for _ in range(heads)] for _ in "qkv"),
        w_o=T.param(rng.uniform(-0.1, 0.1, (width, width))),
    )
    x = T.param(rng.normal(size=(1, 16, 128, width)))
    m = 16 * 128
    tracemalloc.start()
    try:
        out = multi_head_attention(x, None, params, residual)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_head = (3 * m * d + m + d * d + d) * 8
    assert held <= out.data.nbytes + heads * per_head + 16384  # and the arrays' objects


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_fused_mha_with_residual_matches_an_add_after_it_to_the_bit(cross, batch):
    # the residual is the node's first input, so x sums the add's share
    # before the attention's, as an add node after the call did
    rng = np.random.default_rng(79)
    x, kv, params, inputs = _mha_case(rng, cross, batch)
    c = Tensor(rng.normal(size=x.shape))
    out, grads = _out_and_grads(lambda: multi_head_attention(x, kv, params, True), inputs, c)
    want, want_grads = _out_and_grads(
        lambda: ops.add(x, multi_head_attention(x, kv, params)), inputs, c
    )
    assert out.tobytes() == want.tobytes()
    for got, ref in zip(grads, want_grads):
        assert got.tobytes() == ref.tobytes()


def test_fused_mha_vjp_repeats_to_the_byte():
    rng = np.random.default_rng(72)
    x, kv, params, inputs = _mha_case(rng, True, 2)
    params.w_k[1] = Tensor(params.w_k[1].data)  # untracked, so the vjp may skip its share
    inner = multi_head_attention(x, kv, params)
    outer = multi_head_attention(inner, None, params)
    for node in (outer, inner):
        assert_vjp_repeats(node, rng.normal(size=node.shape))


@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_fused_mha_under_no_grad_builds_no_node(cross):
    x, kv, params, _ = _mha_case(np.random.default_rng(73), cross, 1)
    with T.no_grad():
        out = multi_head_attention(x, kv, params)
    assert out.parents == () and not out.requires_grad


def test_fused_mha_backward_keeps_only_leaf_gradients():
    rng = np.random.default_rng(74)
    x, kv, params, inputs = _mha_case(rng, True, 3)
    h = x
    for _ in range(4):
        h = multi_head_attention(h, kv, params)
    loss = ops.sum_(h)
    tracemalloc.start()
    try:
        T.backward(loss)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a kept head gradient, or g_cat, would add at least (3, 12, 3) floats
    assert held <= sum(t.grad.nbytes for t in inputs) + 4096
