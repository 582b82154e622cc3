"""Generic autodiff ops that the oracles and tests compose.

The forecaster runs its fixed formulas (GRU cell, context fusion,
attention, L1 loss) as single fused nodes, and its quadratic attention
reference in plain numpy, so :mod:`flowcast.tensor` carries none of these
generic ops: the linear-algebra ones (``matmul``, ``transpose``), the
elementwise ones (``add`` included: the model adds its residuals inside
the nodes that produce them), ``sum_``, ``softmax``, and the layout ones
(``concat``, ``reshape``). They record their nodes through the library's
own ``_node`` and ``_unbroadcast``, so :func:`backward` differentiates a
composed oracle the same way as the model.
"""

import numpy as np

from flowcast.tensor import ShapeError, Tensor, _node, _sigmoid, _unbroadcast


def _broadcast(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn(a.data, b.data)``, with numpy's shape failure as a ShapeError."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are incompatible") from None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes, broadcasting leading axes like ``@``.

    Gradients dA = dC @ B^T and dB = A^T @ dC, each summed back down to
    its operand's shape.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs operands of rank >= 2, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _node(_broadcast("matmul", np.matmul, a, b), (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape),
        _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape),
    ))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose needs a tensor of rank >= 2, got {a.shape}")
    return _node(np.swapaxes(a.data, -1, -2).copy(), (a,), lambda g: (g.swapaxes(-1, -2),))


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return _node(_broadcast("add", np.add, a, b), (a, b), lambda g: (
        _unbroadcast(g, sa), _unbroadcast(g, sb),
    ))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return _node(_broadcast("sub", np.subtract, a, b), (a, b), lambda g: (
        _unbroadcast(g, sa), -_unbroadcast(g, sb),
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _node(_broadcast("mul", np.multiply, a, b), (a, b), lambda g: (
        _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape),
    ))


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _node(_broadcast("div", np.divide, a, b), (a, b), lambda g: (
        _unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape),
    ))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def absolute(a: Tensor) -> Tensor:
    """|x| with subgradient 0 at x == 0 (np.sign's convention)."""
    sign = np.sign(a.data)
    return _node(np.abs(a.data), (a,), lambda g: (g * sign,))


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(np.asarray(out), (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``; slices sum to 1."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    return _node(out, (a,), lambda g: (out * (g - (g * out).sum(axis, keepdims=True)),))


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; all other dimensions must agree."""
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat axis={axis}: incompatible shapes {[t.shape for t in tensors]}"
        ) from None
    offsets = np.cumsum([t.shape[axis] for t in tensors[:-1]])
    return _node(out, tensors, lambda g: np.split(g, offsets, axis=axis))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))
