"""Elementwise autodiff ops that the oracles and tests compose.

The forecaster runs its fixed formulas (GRU cell, context fusion,
attention, L1 loss) as single fused nodes, so :mod:`flowcast.tensor`
carries none of these generic ops. They record their nodes through the
library's own ``_node`` and broadcasting helpers, so :func:`backward`
differentiates a composed oracle the same way as the model.
"""

import numpy as np

from flowcast.tensor import Tensor, _broadcast, _node, _sigmoid, _unbroadcast


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
