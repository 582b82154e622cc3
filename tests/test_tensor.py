"""Tensor engine: op semantics, gradient correctness, Adam, checkpointing."""

import ast
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcast import tensor as T
from flowcast.attention import AttentionParams, linear_attention, multi_head_attention
from flowcast.checkpoint import CheckpointError, load_arrays, save_arrays
from flowcast.context import GruLayerParams, gru_stack
from flowcast.graph import hop_shells, hop_transitions, multi_hop_conv
from flowcast.model import _fuse
from flowcast.optim import AdamState, GradientError, adam_step, lr_at_epoch, zero_grads
from flowcast.synth import ring_graph
from flowcast.tensor import ShapeError, Tensor, backward, l1_loss

import ops
from gradcheck import grad_close, numeric_grad
from oracles import gru_cell_node


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ops.matmul(eye, b).data, b.data)


def test_matmul_hand_arithmetic():
    out = ops.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    # inner mismatch, mismatched batch axes, and a 1-D operand
    for left, right in [((2, 3), (2, 3)), ((2, 3, 4), (3, 4, 2)), ((3,), (3, 2))]:
        names = rf"{re.escape(str(left))}.*{re.escape(str(right))}"
        with pytest.raises(ShapeError, match=names):
            ops.matmul(Tensor(np.zeros(left)), Tensor(np.zeros(right)))


def test_matmul_gradient_matches_finite_differences():
    # 2-D, a batch against shared weights, a shared node operator against
    # (B, T, N, F) features, and a batch against a batch
    rng = np.random.default_rng(7)
    for left, right in [
        ((3, 4), (4, 2)), ((2, 3, 4), (4, 2)), ((3, 3), (2, 2, 3, 4)), ((2, 3, 4), (2, 4, 2)),
    ]:
        a = T.param(rng.uniform(-1, 1, left))
        b = T.param(rng.uniform(-1, 1, right))
        c = Tensor(rng.uniform(-1, 1, np.broadcast_shapes(left[:-2], right[:-2])
                               + (left[-2], right[-1])))

        backward(ops.sum_(ops.mul(ops.matmul(a, b), c)))

        def forward():
            return (ops.matmul(a, b).data * c.data).sum()

        assert a.grad.shape == left and b.grad.shape == right
        assert grad_close(a.grad, numeric_grad(forward, a.data), rtol=1e-6)
        assert grad_close(b.grad, numeric_grad(forward, b.data), rtol=1e-6)


def test_transpose_swaps_last_two_axes():
    rng = np.random.default_rng(8)
    x = T.param(rng.uniform(-1, 1, (2, 3, 4)))
    c = Tensor(rng.uniform(-1, 1, (2, 4, 3)))
    out = ops.transpose(x)
    assert np.array_equal(out.data, x.data.transpose(0, 2, 1))
    backward(ops.sum_(ops.mul(out, c)))
    numeric = numeric_grad(lambda: (ops.transpose(x).data * c.data).sum(), x.data)
    assert grad_close(x.grad, numeric, rtol=1e-6)
    with pytest.raises(ShapeError, match=r"\(3,\)"):
        ops.transpose(Tensor(np.zeros(3)))


@pytest.mark.parametrize(
    "op",
    [ops.sigmoid, ops.tanh, ops.exp, ops.absolute],
    ids=["sigmoid", "tanh", "exp", "abs"],
)
def test_unary_gradients(op):
    rng = np.random.default_rng(11)
    # keep |x| away from 0 so the abs kink cannot straddle the FD step
    x = T.param(rng.uniform(0.2, 1.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3)))
    weights = Tensor(rng.uniform(-1, 1, (4, 3)))

    loss = ops.sum_(ops.mul(op(x), weights))
    backward(loss)
    numeric = numeric_grad(lambda: (op(x).data * weights.data).sum(), x.data)
    assert grad_close(x.grad, numeric, rtol=1e-6)


def test_binary_broadcast_gradients():
    rng = np.random.default_rng(13)
    x = T.param(rng.uniform(-1, 1, (5, 4)))
    bias = T.param(rng.uniform(-1, 1, (4,)))
    c = Tensor(rng.uniform(-1, 1, (5, 4)))

    loss = ops.sum_(ops.mul(ops.add(x, bias), c))
    backward(loss)
    num_x = numeric_grad(lambda: ((x.data + bias.data) * c.data).sum(), x.data)
    num_b = numeric_grad(lambda: ((x.data + bias.data) * c.data).sum(), bias.data)
    assert grad_close(x.grad, num_x, rtol=1e-6)
    assert grad_close(bias.grad, num_b, rtol=1e-6)


def test_div_gradient():
    rng = np.random.default_rng(17)
    a = T.param(rng.uniform(0.5, 1.5, (3, 3)))
    b = T.param(rng.uniform(0.5, 1.5, (3, 1)))
    loss = ops.sum_(ops.div(a, b))
    backward(loss)
    num_a = numeric_grad(lambda: (a.data / b.data).sum(), a.data)
    num_b = numeric_grad(lambda: (a.data / b.data).sum(), b.data)
    assert grad_close(a.grad, num_a, rtol=1e-6)
    assert grad_close(b.grad, num_b, rtol=1e-6)


def test_sigmoid_at_zero():
    assert ops.sigmoid(Tensor([0.0])).data[0] == 0.5


def _masked_sigmoid(x):
    """Sign-split exp form: exp only ever sees non-positive arguments."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_extremes_without_warnings():
    special = np.array([-np.inf, -800.0, -1e-300, 0.0, 1e-300, 800.0, np.inf, np.nan])
    x = np.concatenate([special, np.linspace(-800.0, 800.0, 20_001)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ops.sigmoid(Tensor(x)).data
    assert np.isnan(out[7])
    assert out[0] == 0.0 and out[3] == 0.5 and out[6] == 1.0
    rest = np.delete(out, 7)
    assert np.all((rest >= 0.0) & (rest <= 1.0))
    assert np.max(np.abs(rest - _masked_sigmoid(np.delete(x, 7)))) <= 4e-16


def test_concat_along_axis_1():
    out = ops.concat([Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])], axis=1)
    assert out.data.tolist() == [[1.0, 3.0], [2.0, 4.0]]


def test_concat_shape_mismatch():
    with pytest.raises(ShapeError):
        ops.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3)))], axis=1)
    with pytest.raises(ShapeError, match=r"concat axis=0: .*\(2, 2\).*\(2, 2, 1\)"):
        ops.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2, 1)))], axis=0)


@pytest.mark.parametrize("op", [ops.add, ops.sub, ops.mul, ops.div])
def test_elementwise_shape_error_names_op_and_both_shapes(op):
    with pytest.raises(ShapeError, match=rf"{op.__name__}: .*\(2, 3\).*\(4,\)"):
        op(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))


def test_concat_gradient_splits():
    a = T.param(np.ones((2, 2)))
    b = T.param(np.ones((2, 3)))
    c = Tensor(np.arange(10.0).reshape(2, 5))
    backward(ops.sum_(ops.mul(ops.concat([a, b], axis=1), c)))
    assert np.array_equal(a.grad, c.data[:, :2])
    assert np.array_equal(b.grad, c.data[:, 2:])


def test_reshape_element_count_check():
    with pytest.raises(ShapeError):
        ops.reshape(Tensor(np.zeros((2, 3))), (4, 2))


def test_backward_sets_grad_on_leaves_only():
    rng = np.random.default_rng(3)
    w = T.param(rng.normal(size=(3, 2)))
    b = T.param(rng.normal(size=2))
    hidden = ops.tanh(ops.matmul(Tensor(rng.normal(size=(4, 3))), w))
    loss = ops.sum_(ops.add(hidden, b))
    backward(loss)
    assert w.grad is not None and b.grad is not None
    assert hidden.grad is None and loss.grad is None


def test_slice_gradient_scatters():
    x = T.param(np.arange(12.0).reshape(3, 4))
    backward(ops.sum_(T._slice(x, 1)))
    expected = np.zeros((3, 4))
    expected[1] = 1.0
    assert np.array_equal(x.grad, expected)


def test_overlapping_slices_accumulate():
    x = T.param(np.arange(12.0).reshape(3, 4))
    backward(ops.add(ops.sum_(T._slice(x, np.s_[0:2])), ops.sum_(T._slice(x, np.s_[1:3]))))
    assert np.array_equal(x.grad, np.array([[1.0] * 4, [2.0] * 4, [1.0] * 4]))


def test_basic_indices_still_accumulate():
    x = T.param(np.arange(24.0).reshape(2, 3, 4))
    backward(ops.add(
        ops.add(ops.sum_(T._slice(x, 0)), ops.sum_(T._slice(x, np.s_[..., 1:3]))),
        ops.sum_(T._slice(x, np.s_[:, 2, None, ::2])),
    ))
    expected = np.zeros((2, 3, 4))
    expected[0] += 1
    expected[..., 1:3] += 1
    expected[:, 2, ::2] += 1
    assert np.array_equal(x.grad, expected)


def test_per_step_slices_match_one_dense_product():
    # the per-step GRU oracle reads x[:, t] for every step t
    rng = np.random.default_rng(41)
    xd = rng.normal(size=(1, 12, 5, 3))
    w = rng.normal(size=(1, 12, 5, 3))
    x = T.param(xd)
    backward(ops.sum_(ops.concat(
        [ops.mul(T._slice(x, np.s_[:, t]), Tensor(w[:, t])) for t in range(12)], axis=0)))
    dense = T.param(xd)
    backward(ops.sum_(ops.mul(dense, Tensor(w))))
    assert np.array_equal(x.grad, dense.grad)
    assert np.array_equal(x.grad, w)


@pytest.mark.parametrize("dense", [False, True], ids=["slice", "dense"])
@pytest.mark.parametrize("shared_first", [False, True], ids=["other_first", "shared_first"])
def test_in_place_accumulation_leaves_shared_gradients_alone(dense, shared_first):
    # add hands one array to both operands. p gets a second contribution,
    # a dense product or a slice's gradient, which must not be added in
    # place into the array q holds.
    rng = np.random.default_rng(43)
    p = T.param(rng.normal(size=(3, 4)))
    q = T.param(rng.normal(size=(3, 4)))
    c = Tensor(rng.normal(size=(3, 4)))
    d = Tensor(rng.normal(size=(3, 4) if dense else 4))
    shared = ops.sum_(ops.mul(ops.add(p, q), c))
    other = ops.sum_(ops.mul(p if dense else T._slice(p, 1), d))
    backward(ops.add(shared, other) if shared_first else ops.add(other, shared))
    assert np.array_equal(q.grad, c.data)
    expected = c.data.copy()
    if dense:
        expected += d.data
    else:
        expected[1] += d.data
    assert np.array_equal(p.grad, expected)


def test_softmax_symmetry():
    out = ops.softmax(Tensor([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_no_overflow_on_large_inputs():
    out = ops.softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_closed_form():
    out = ops.softmax(Tensor([0.0, np.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)


@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-8, 8, (rows, cols))
    out = ops.softmax(Tensor(x), axis=1).data
    assert np.all(out >= 0)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
    shifted = ops.softmax(Tensor(x + rng.uniform(-5, 5)), axis=1).data
    assert np.max(np.abs(out - shifted)) <= 1e-12


def test_softmax_gradient():
    rng = np.random.default_rng(23)
    x = T.param(rng.uniform(-1, 1, (3, 4)))
    c = Tensor(rng.uniform(-1, 1, (3, 4)))
    backward(ops.sum_(ops.mul(ops.softmax(x, axis=1), c)))
    numeric = numeric_grad(
        lambda: (ops.softmax(x, axis=1).data * c.data).sum(), x.data
    )
    assert grad_close(x.grad, numeric, rtol=1e-6)


def test_backward_sum_gives_ones():
    w = T.param(np.array([[2.0, -1.0], [0.5, 3.0]]))
    backward(ops.sum_(w))
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_backward_square_gives_two_w():
    w = T.param(np.array([2.0, 3.0]))
    backward(ops.sum_(ops.mul(w, w)))
    assert np.array_equal(w.grad, [4.0, 6.0])


def test_backward_rejects_non_scalar():
    w = T.param(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        backward(ops.mul(w, w))


def test_backward_accumulates_across_calls():
    # a pass consumes its graph, so the second call backpropagates a rebuilt one
    w = T.param(np.array([1.0, 2.0]))
    backward(ops.sum_(ops.mul(w, w)))
    first = w.grad.copy()
    backward(ops.sum_(ops.mul(w, w)))
    assert np.allclose(w.grad, 2.0 * first, atol=0)


def test_second_backward_on_a_consumed_graph_raises():
    w = T.param(np.array([1.0, 2.0]))
    h = ops.mul(w, w)
    loss = ops.sum_(h)
    backward(loss)
    first = w.grad.copy()
    assert loss.parents == () and h.parents == ()
    with pytest.raises(T.GraphConsumedError, match="already backpropagated"):
        backward(loss)
    # a new graph over a consumed node fails too, rather than treating it as a leaf
    with pytest.raises(T.GraphConsumedError, match="build it again"):
        backward(ops.sum_(T.scale(h, 2.0)))
    assert np.array_equal(w.grad, first) and h.grad is None


def test_shared_subexpression_gradient():
    # y = (w * w) + w  =>  dy/dw = 2w + 1
    w = T.param(np.array([3.0]))
    backward(ops.sum_(ops.add(ops.mul(w, w), w)))
    assert np.allclose(w.grad, [7.0], atol=0)


def test_operations_do_not_mutate_inputs():
    rng = np.random.default_rng(29)
    a = Tensor(rng.uniform(-1, 1, (3, 3)))
    b = Tensor(rng.uniform(-1, 1, (3, 3)))
    a_before, b_before = a.data.copy(), b.data.copy()
    ops.matmul(a, b)
    ops.add(a, b)
    ops.mul(a, b)
    ops.softmax(a, axis=0)
    ops.tanh(a)
    ops.reshape(a, (9,))
    ops.concat([a, b], axis=0)
    assert np.array_equal(a.data, a_before)
    assert np.array_equal(b.data, b_before)


def test_no_grad_skips_graph():
    w = T.param(np.ones(3))
    with T.no_grad():
        out = ops.mul(w, w)
    assert out.parents == () and not out.requires_grad


def test_fused_node_runs_its_vjp_once_per_backward_for_tracked_inputs():
    # out = a * b + c as one node; b is a constant, and a is passed twice
    a, c = T.param(np.array([2.0, 3.0])), T.param(np.array([1.0, 1.0]))
    b = Tensor(np.array([5.0, 7.0]))
    calls = []

    def vjp(g):
        calls.append(g.shape)
        return [g * b.data, g * a.data, g, g * b.data]

    def build():
        out = T._node(a.data * b.data + c.data, (a, b, c, a), vjp)
        assert out.parents == ((a, 0), (c, 2), (a, 3))
        return ops.sum_(out)

    backward(build())
    backward(build())
    assert calls == [(2,)] * 2 and b.grad is None
    assert a.grad.tolist() == [20.0, 28.0] and c.grad.tolist() == [2.0, 2.0]
    with T.no_grad():
        assert T._node(a.data, (a,), vjp).parents == ()
    assert T._node(b.data, (b,), vjp).parents == ()


def _assert_parents_index_inputs(out, inputs):
    # each parent is (input, i) with inputs[i] that very input, in input order
    assert out.parents == tuple((t, i) for i, t in enumerate(inputs) if t.requires_grad)
    assert all(inputs[i] is t for t, i in out.parents)


def test_parents_name_each_tracked_input_by_its_position():
    rng = np.random.default_rng(5)
    const, w = Tensor(rng.normal(size=(2, 3))), T.param(rng.normal(size=(3, 3)))
    _assert_parents_index_inputs(ops.matmul(const, w), (const, w))
    parts = [T.param(np.ones((2, 1))), Tensor(np.ones((2, 2))), T.param(np.ones((2, 3)))]
    _assert_parents_index_inputs(ops.concat(parts, axis=1), parts)
    f = 3
    weights = {
        fl.name: T.param(rng.normal(size=(f,) if fl.name.startswith("b_") else (f, f)))
        for fl in fields(GruLayerParams)
    }
    x_t, h_prev = T.param(rng.normal(size=(4, f))), Tensor(rng.normal(size=(4, f)))
    inputs = (x_t, h_prev) + tuple(weights.values())
    layer = GruLayerParams(**weights)
    _assert_parents_index_inputs(gru_cell_node(x_t, h_prev, layer), inputs)


def test_backward_leaves_an_untracked_operand_without_grad():
    rng = np.random.default_rng(6)
    a, b = Tensor(rng.normal(size=(2, 3))), T.param(rng.normal(size=(3, 4)))
    c = Tensor(rng.normal(size=(2, 4)))
    backward(ops.sum_(ops.mul(ops.matmul(a, b), c)))
    assert a.grad is None and c.grad is None
    assert np.array_equal(b.grad, a.data.T @ c.data)


def _node_cases(rng):
    """Each node kind as a call that builds one node, with untracked
    constants among the inputs and broadcast operands where the op
    broadcasts."""
    def p(*shape):
        return T.param(rng.normal(size=shape))

    def c(*shape):
        return Tensor(rng.normal(size=shape))

    a = p(2, 3)
    gru = GruLayerParams(**{
        f.name: p(3) if f.name.startswith("b_") else p(3, 3) for f in fields(GruLayerParams)
    })
    attn = AttentionParams(
        w_q=[p(4, 2), p(4, 2)], w_k=[p(4, 2), p(4, 2)], w_v=[p(4, 2), p(4, 2)], w_o=p(4, 4)
    )
    trans = hop_transitions(hop_shells(ring_graph(5), 2))
    return {
        "matmul": lambda: ops.matmul(c(2, 3, 4), p(4, 5)),
        "add": lambda: ops.add(p(2, 3), c(3)),
        "scale": lambda: T.scale(a, 0.5),
        "concat": lambda: ops.concat([p(2, 1), c(2, 2), p(2, 3)], axis=1),
        "reshape": lambda: ops.reshape(a, (3, 2)),
        "slice": lambda: T._slice(a, np.s_[1:, ::2]),
        "softmax": lambda: ops.softmax(a, axis=0),
        "transpose": lambda: ops.transpose(p(2, 3, 4)),
        "l1_loss": lambda: l1_loss(a, c(2, 3)),
        "fuse": lambda: _fuse(p(10, 4), p(4), [p(2, 3, 5, 1), c(5, 4), p(2, 3, 1, 5)]),
        "gru_cell": lambda: gru_cell_node(p(2, 5, 3), c(2, 5, 3), gru),
        "gru_layer": lambda: gru_stack(p(2, 4, 5, 3), [c(2, 5, 3)], [gru]),
        "gru_rollout": lambda: gru_stack(c(2, 1, 5, 3), [p(2, 5, 3), c(2, 5, 3)], [gru, gru], 3),
        "self_attention": lambda: multi_head_attention(p(2, 6, 4), None, attn),
        "cross_attention": lambda: multi_head_attention(p(2, 6, 4), c(2, 7, 4), attn),
        "linear_attention": lambda: linear_attention(p(5, 3), c(6, 3), p(6, 2)),
        "multi_hop_conv": lambda: multi_hop_conv(p(3, 5, 4), trans, [p(4, 2), p(4, 2)], p(4, 4)),
    }


@pytest.mark.parametrize("kind", sorted(_node_cases(np.random.default_rng(0))))
def test_every_vjp_returns_one_gradient_per_input_of_its_shape(kind, monkeypatch):
    # every input as the op hands it to _node, tracked or not
    seen, node = [], T._node

    def recording_node(data, inputs, vjp):
        seen.append(inputs)
        return node(data, inputs, vjp)

    monkeypatch.setattr(T, "_node", recording_node)
    monkeypatch.setattr(ops, "_node", recording_node)  # the generic ops of tests/ops.py
    rng = np.random.default_rng(8)
    out = _node_cases(rng)[kind]()
    (inputs,) = seen
    grads = out.vjp(rng.normal(size=out.shape))
    assert len(grads) == len(inputs)
    for t, g in zip(inputs, grads):
        assert g.shape == t.shape


def test_only_node_builds_graph_nodes():
    # one node protocol: under src/flowcast, only _node builds a Tensor with
    # parents or a vjp, and only Tensor.__init__ assigns either, but for
    # backward, which clears both on each node it consumes
    found = []
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {}  # innermost enclosing function: ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                inside.update(dict.fromkeys(ast.walk(fn), fn.name))
        for n in ast.walk(tree):
            callee = getattr(n, "func", None)
            builds = isinstance(n, ast.Call) and "Tensor" in (
                getattr(callee, "id", None), getattr(callee, "attr", None)
            ) and (len(n.args) > 2 or any(k.arg in ("parents", "vjp") for k in n.keywords))
            stores = isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) \
                and n.attr in ("parents", "vjp")
            if builds or stores:
                found.append((path.name, inside.get(n)))
    assert sorted(found) == (
        [("tensor.py", "__init__")] * 2 + [("tensor.py", "_node")] + [("tensor.py", "backward")] * 2
    )


def test_every_public_name_is_used_by_the_forecaster():
    # flowcast.tensor carries only the ops some other module runs; the
    # package's re-exports in __init__ do not count as a use
    package = Path(T.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name in ("__init__.py", "tensor.py"):
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "tensor":
                    used.update(alias.name for alias in node.names)
                elif node.module is None:
                    aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
        used.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        )
    assert set(T.__all__) <= used, sorted(set(T.__all__) - used)


_HEAP_CYCLES = """
import resource
import numpy as np
import flowcast
a = np.ones((12, 228, 128)); del a
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    a = np.ones((12, 228, 128)); del a
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _heap_cycle_faults(**malloc_env) -> int:
    """Minor faults of 200 alloc/free cycles of a ref228 activation-sized
    array, after one, in a fresh process that imports flowcast first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(T.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _HEAP_CYCLES], env={**env, **malloc_env},
        capture_output=True, text=True, check=True,
    )
    return int(run.stdout)


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap setting is glibc's",
)
def test_import_keeps_freed_arrays_in_the_heap():
    # glibc's defaults hand a freed 2.8 MB array back to the OS, and the next
    # one faults its pages in again (about 670 faults here)
    assert _heap_cycle_faults() < 20
    # a malloc setting in the environment decides instead: trimming at 0
    # maps each array on its own, which faults on every cycle
    assert _heap_cycle_faults(MALLOC_TRIM_THRESHOLD_="0") >= 200


def test_deep_graph_does_not_recurse():
    x = T.param(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = ops.add(y, x)
    backward(ops.sum_(y))
    assert x.grad[0] == 5001.0


# ---------------------------------------------------------------------------
# L1 objective

def test_l1_loss_hand_value():
    assert l1_loss(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.0]])).data == 3.0


def test_l1_loss_identity_is_zero():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
    assert l1_loss(x, x).data == 0.0


def test_l1_loss_matches_elementwise_oracle():
    rng = np.random.default_rng(31)
    p, t = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    expected = sum(abs(p[i, j] - t[i, j]) for i in range(2) for j in range(2))
    assert np.isclose(l1_loss(Tensor(p), Tensor(t)).data, expected, atol=1e-12)


def test_l1_loss_scale_gives_the_scale_node_bits():
    # the scale factor inside the node keeps the value and both gradients
    # of the former l1_loss-then-scale chain byte for byte
    rng = np.random.default_rng(32)
    p_data, t_data = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
    grads = []
    for build in (
        lambda p, t: l1_loss(p, t, 1.0 / 3),
        lambda p, t: T.scale(l1_loss(p, t), 1.0 / 3),
    ):
        p, t = T.param(p_data), T.param(t_data)
        loss = build(p, t)
        backward(loss)
        grads.append((loss.data.tobytes(), p.grad.tobytes(), t.grad.tobytes()))
    assert grads[0] == grads[1]


def test_l1_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        l1_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_l1_subgradient_zero_at_ties():
    p = T.param(np.array([1.0, 2.0]))
    backward(l1_loss(p, Tensor([1.0, 0.0])))
    assert p.grad.tolist() == [0.0, 1.0]


def test_l1_loss_is_one_node_with_the_composed_bits():
    rng = np.random.default_rng(47)
    pred, target = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
    target[0, 1] = pred[0, 1]  # ties take subgradient 0 on both sides
    p, t = T.param(pred), T.param(target)
    cp, ct = T.param(pred), T.param(target)
    loss = T.scale(l1_loss(p, t), 1.0 / 3)
    composed = T.scale(ops.sum_(ops.absolute(ops.sub(cp, ct))), 1.0 / 3)
    backward(loss)
    backward(composed)
    assert loss.data.tobytes() == composed.data.tobytes()
    assert p.grad.tobytes() == cp.grad.tobytes()
    assert t.grad.tobytes() == ct.grad.tobytes()
    assert [q for q, _ in l1_loss(p, t).parents] == [p, t]
    with T.no_grad():
        assert l1_loss(p, t).parents == ()


# ---------------------------------------------------------------------------
# Adam

def _params(values):
    return {name: T.param(np.array(vals)) for name, vals in values.items()}


def test_adam_first_step_magnitude_is_lr():
    p = _params({"w": [1.0, 1.0, 1.0]})
    p["w"].grad = np.ones(3)
    state = AdamState.for_params(p)
    adam_step(p, state, lr=0.01)
    # bias correction makes m_hat = g and v_hat = g^2 on step 1
    update = 1.0 - p["w"].data
    assert np.allclose(update, 0.01, rtol=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    p = _params({"w": [1.0, -2.0]})
    p["w"].grad = np.zeros(2)
    state = AdamState.for_params(p)
    adam_step(p, state, lr=0.1)
    assert np.array_equal(p["w"].data, [1.0, -2.0])
    assert state.step == 1


def test_adam_sign_preservation():
    p = _params({"w": [5.0]})
    state = AdamState.for_params(p)
    values = [5.0]
    for _ in range(2):
        p["w"].grad = np.array([2.0])
        adam_step(p, state, lr=0.05)
        values.append(float(p["w"].data[0]))
    assert values[0] > values[1] > values[2]


def test_adam_rejects_non_finite_gradient():
    p = _params({"w_bad": [1.0]})
    p["w_bad"].grad = np.array([np.nan])
    state = AdamState.for_params(p)
    with pytest.raises(GradientError, match="w_bad"):
        adam_step(p, state, lr=0.01)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_adam_non_finite_last_gradient_changes_nothing(bad):
    p = _params({"a": [1.0, 2.0], "b": [3.0], "c": [-1.0]})
    for t in p.values():
        t.grad = np.ones_like(t.data)
    state = AdamState.for_params(p)
    adam_step(p, state, lr=0.1)  # nonzero moments to keep
    before = {n: (t.data.copy(), state.m[n].copy(), state.v[n].copy()) for n, t in p.items()}
    p["c"].grad = np.array([bad])
    with pytest.raises(GradientError, match="'c'"):
        adam_step(p, state, lr=0.1)
    assert state.step == 1
    for name, (data, m, v) in before.items():
        assert p[name].data.tobytes() == data.tobytes(), name
        assert state.m[name].tobytes() == m.tobytes(), name
        assert state.v[name].tobytes() == v.tobytes(), name


@pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1.0])
def test_adam_rejects_a_learning_rate_not_finite_and_above_zero_changing_nothing(lr):
    p = _params({"a": [1.0, 2.0], "b": [3.0]})
    for t in p.values():
        t.grad = np.ones_like(t.data)
    state = AdamState.for_params(p)
    adam_step(p, state, lr=0.1)  # nonzero moments to keep
    before = {n: (t.data.copy(), state.m[n].copy(), state.v[n].copy()) for n, t in p.items()}
    with pytest.raises(ValueError, match=f"learning rate .*got {lr}$"):
        adam_step(p, state, lr=lr)
    assert state.step == 1
    for name, (data, m, v) in before.items():
        assert p[name].data.tobytes() == data.tobytes(), name
        assert state.m[name].tobytes() == m.tobytes(), name
        assert state.v[name].tobytes() == v.tobytes(), name


def test_zero_grads():
    p = _params({"w": [1.0]})
    p["w"].grad = np.ones(1)
    zero_grads(p)
    assert p["w"].grad is None


def test_lr_schedule_england():
    decay = [25, 35]
    assert lr_at_epoch(24, 1e-3, decay, 0.1) == pytest.approx(1e-3)
    assert lr_at_epoch(25, 1e-3, decay, 0.1) == pytest.approx(1e-4)
    assert lr_at_epoch(34, 1e-3, decay, 0.1) == pytest.approx(1e-4)
    assert lr_at_epoch(35, 1e-3, decay, 0.1) == pytest.approx(1e-5)


# ---------------------------------------------------------------------------
# Checkpoint container

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    arrays = {
        "w1": rng.normal(size=(3, 4)),
        "deep.nested.bias": rng.normal(size=(5,)),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "model.ckpt"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name], arrays[name])
        assert loaded[name].shape == arrays[name].shape


def test_load_arrays_holds_each_entry_once(tmp_path):
    path = tmp_path / "big.ckpt"
    save_arrays(path, {f"w{i}": np.full((256, 256), float(i)) for i in range(8)})  # 4 MB
    tracemalloc.start()
    try:
        arrays = load_arrays(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # reading the whole file first and copying each entry out of it peaked at twice this
    assert peak <= sum(a.nbytes for a in arrays.values()) + 65536
    assert all(a.flags.writeable and a.flags.c_contiguous for a in arrays.values())
    assert [float(a[0, 0]) for a in arrays.values()] == [float(i) for i in range(8)]


def test_checkpoint_truncated_mid_array_names_file(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_arrays(path, {"w": np.arange(100.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 400])  # ends inside the 800-byte array
    with pytest.raises(CheckpointError, match="cut.ckpt"):
        load_arrays(path)


def test_checkpoint_failed_save_keeps_old_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_arrays(path, {"w": np.arange(6.0)})
    before = path.read_bytes()
    with pytest.raises(ValueError):  # the second entry is not numeric
        save_arrays(path, {"w": np.zeros(1000), "bad": np.array(["x"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_duplicate_entry_names_it(tmp_path):
    path = tmp_path / "dup.ckpt"
    save_arrays(path, {"a": np.zeros(3), "b": np.zeros(2)})
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\x01\x00b", b"\x01\x00a"))  # rename entry b to a
    with pytest.raises(CheckpointError, match=r"dup\.ckpt: duplicate entry 'a'$"):
        load_arrays(path)


def test_checkpoint_entry_name_that_is_not_utf8_names_its_offset(tmp_path):
    path = tmp_path / "name.ckpt"
    save_arrays(path, {"a": np.zeros(3)})
    blob = path.read_bytes()
    # magic (8) + count (4) + name length (2): the one-byte name is at byte 14
    path.write_bytes(blob.replace(b"\x01\x00a", b"\x01\x00\xff"))
    with pytest.raises(CheckpointError, match=r"name\.ckpt: entry name at byte 14 is not UTF-8$"):
        load_arrays(path)


_MUTATION = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10**4)),
    st.tuples(st.just("insert"), st.integers(0, 10**4), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("overwrite"), st.integers(0, 10**4), st.binary(min_size=1, max_size=8)),
)


@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_arrays_fuzz_raises_only_checkpoint_errors(tmp_path, mutations):
    path = tmp_path / "fuzz.ckpt"
    save_arrays(path, {
        "param.w": np.arange(6.0).reshape(2, 3), "cfg.lr": np.array([1e-3]),
        "adam.step": np.array(4.0),
    })
    blob = bytearray(path.read_bytes())
    for kind, pos, *data in mutations:
        pos %= len(blob) + 1
        if kind == "cut":
            del blob[pos:]
        elif kind == "insert":
            blob[pos:pos] = data[0]
        else:
            blob[pos : pos + len(data[0])] = data[0]
    path.write_bytes(bytes(blob))
    try:
        arrays = load_arrays(path)
    except CheckpointError as err:
        assert str(path) in str(err)
    else:
        assert all(a.dtype == np.float64 for a in arrays.values())


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_arrays(path)
