"""Elementwise autodiff ops that the oracles and tests compose.

The forecaster runs its fixed formulas (GRU cell, context fusion,
attention, L1 loss) as single fused nodes, so :mod:`flowcast.tensor`
carries none of these generic ops. They record their nodes through the
library's own ``_make`` and broadcasting helpers, so :func:`backward`
differentiates a composed oracle the same way as the model.
"""

import numpy as np

from flowcast.tensor import Tensor, _broadcast, _make, _sigmoid, _unbroadcast


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(_broadcast("sub", np.subtract, a, b), (
        (a, lambda g, s=a.shape: _unbroadcast(g, s)),
        (b, lambda g, s=b.shape: -_unbroadcast(g, s)),
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(_broadcast("mul", np.multiply, a, b), (
        (a, lambda g, bd=b.data, s=a.shape: _unbroadcast(g * bd, s)),
        (b, lambda g, ad=a.data, s=b.shape: _unbroadcast(g * ad, s)),
    ))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(_broadcast("div", np.divide, a, b), (
        (a, lambda g, bd=b.data, s=a.shape: _unbroadcast(g / bd, s)),
        (b, lambda g, ad=a.data, bd=b.data, s=b.shape:
            _unbroadcast(-g * ad / (bd * bd), s)),
    ))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _make(out, ((a, lambda g, o=out: g * o * (1.0 - o)),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, ((a, lambda g, o=out: g * (1.0 - o * o)),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, ((a, lambda g, o=out: g * o),))


def absolute(a: Tensor) -> Tensor:
    """|x| with subgradient 0 at x == 0 (np.sign's convention)."""
    return _make(np.abs(a.data), ((a, lambda g, s=np.sign(a.data): g * s),))


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g, shape=a.shape, axis=axis, keepdims=keepdims):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return _make(np.asarray(out), ((a, grad_fn),))
