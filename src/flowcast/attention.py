"""Attention kernels over joint space-time token sequences.

``softmax_attention`` is the quadratic reference: it materializes the full
score matrix in plain numpy and builds no graph node. ``linear_attention``
replaces the softmax with a positive exponential feature map and exploits
matmul associativity: the key-value summary (d x d) and key normalizer (d)
are accumulated once, so time and memory are linear in the token count
instead of quadratic.

``softmax_attention`` and ``linear_attention`` take (..., M, d) tokens.
``multi_head_attention`` takes the model's (..., T, N, F) features and
attends over every (step, node) pair of a sample as one token, viewing
them as (..., T*N, F) inside its node. Leading batch axes are optional;
each sample keeps its own summary and normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "AttentionParams",
    "softmax_attention",
    "linear_attention",
    "multi_head_attention",
    "DegenerateAttentionError",
]


class DegenerateAttentionError(ArithmeticError):
    """An attention normalizer underflowed to (near) zero."""


@dataclass
class AttentionParams:
    """Per-head query/key/value projections (F x d) plus output map (F x F)."""

    w_q: list[Tensor]
    w_k: list[Tensor]
    w_v: list[Tensor]
    w_o: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (wq, wk, wv) in enumerate(zip(self.w_q, self.w_k, self.w_v)):
            out[f"{prefix}.h{i}.w_q"] = wq
            out[f"{prefix}.h{i}.w_k"] = wk
            out[f"{prefix}.h{i}.w_v"] = wv
        out[f"{prefix}.w_o"] = self.w_o
        return out


# ---------------------------------------------------------------------------
# Quadratic reference

def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> None:
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2:
        raise ShapeError("attention operands must have rank >= 2")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query dim {q.shape} vs key dim {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key rows {k.shape} vs value rows {v.shape}")
    try:
        np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    except ValueError:
        raise ShapeError(f"batch axes of {q.shape}, {k.shape} and {v.shape} differ") from None


def softmax_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d)) V — O(M^2) time and memory; a reference
    on the arrays that returns an untracked Tensor."""
    _check_qkv(q, k, v)
    scores = q.data @ _swap(k.data)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return Tensor(scores @ v.data)


# ---------------------------------------------------------------------------
# Linear attention

def _head_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, out=None):
    """One head of linear attention on arrays, written into ``out`` when
    given. Returns the output and what :func:`_head_backward` needs:
    phi(q), phi(k), v, the summary S, the normalizer z and the
    denominators phi(q) . z."""
    phi_q = q - q.max(axis=-1, keepdims=True)
    np.exp(phi_q, out=phi_q)
    phi_k = k - k.max(axis=(-2, -1), keepdims=True)
    np.exp(phi_k, out=phi_k)
    summary = _swap(phi_k).copy() @ v  # (..., d, d_v)
    normalizer = phi_k.sum(axis=-2)  # (..., d)
    num = phi_q @ summary  # (..., M, d_v)
    den = phi_q @ normalizer.reshape(normalizer.shape + (1,))
    bad = ~(den >= 1e-30)  # catches underflow and NaN alike
    if bad.any():
        *sample, row, _ = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f"sample {', '.join(map(str, sample))}, " if sample else ""
        raise DegenerateAttentionError(
            f"attention normalizer degenerate at {where}query row {row}"
        )
    return np.divide(num, den, out=out), (phi_q, phi_k, v, summary, normalizer, den)


def _head_backward(
    g: np.ndarray, saved, num: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients at one head's q, k and v from its output gradient ``g``,
    by the chain rule through :func:`_head_forward`'s steps (the shifts
    are constants). ``num`` is the forward's ``phi(q) @ S``, which the
    caller rebuilds from ``saved``."""
    phi_q, phi_k, v, summary, normalizer, den = saved
    nr = normalizer.reshape(normalizer.shape + (1,))
    g_num = g / den
    g_den = T._unbroadcast(-g * num / (den * den), den.shape)
    g_phi_q = T._unbroadcast(g_num @ _swap(summary), phi_q.shape)
    g_phi_q += T._unbroadcast(g_den @ _swap(nr), phi_q.shape)
    g_summary = T._unbroadcast(_swap(phi_q) @ g_num, summary.shape)
    g_nr = T._unbroadcast(_swap(phi_q) @ g_den, nr.shape)
    g_phi_k = _swap(T._unbroadcast(g_summary @ _swap(v), _swap(phi_k).shape))
    g_phi_k = g_phi_k + np.expand_dims(g_nr.reshape(normalizer.shape), -2)
    g_v = T._unbroadcast(phi_k @ g_summary, v.shape)
    g_phi_q *= phi_q
    g_phi_k *= phi_k
    return g_phi_q, g_phi_k, g_v


def linear_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Kernelized attention in right-associated order: O(M) in tokens.

    With the feature map phi = exp, accumulates S = sum_j phi(k_j)^T v_j
    (d x d) and z = sum_j phi(k_j) once per sample, then each output row
    is (phi(q_i) S) / (phi(q_i) . z). Before exponentiating, each query
    row loses its own maximum and each sample's keys one shared maximum
    (over the last two axes), both gradient-detached: either shift scales
    a row's numerator and denominator alike, so the ratio is unchanged
    while exp stays in range. A per-row key shift would not cancel.

    One graph node; it keeps phi(q), phi(k), v, S, z and the denominators.
    """
    _check_qkv(q, k, v)
    out, saved = _head_forward(q.data, k.data, v.data)
    phi_q, _, _, summary, _, _ = saved
    return T._node(out, (q, k, v), lambda g: _head_backward(g, saved, phi_q @ summary))


def multi_head_attention(
    x: Tensor, cross_kv: Tensor | None, params: AttentionParams, residual: bool = False
) -> Tensor:
    """Heads of linear attention, concatenated and output-projected, plus
    ``x`` itself when ``residual`` is set.

    ``x`` and ``cross_kv`` are (..., T, N, F) features; every (step, node)
    pair of a sample is one token, time-major, viewed as (..., T*N, F) inside
    the node, and the output has the shape of ``x`` with the batch axes
    broadcast. Queries come from ``x``; keys/values from ``cross_kv`` when
    given (cross-attention) and from ``x`` otherwise. The head count is
    ``len(params.w_q)``, every q, k and v projection has one width, and the
    model width is that of ``params.w_o``. A degenerate normalizer is
    re-raised naming the head; its query row is the token's index.

    The whole call is one graph node with a hand-written backward. Each
    head runs the numpy ops of ``linear_attention`` on its projections,
    so the output is the same to the bit as composing them. The node keeps
    only each head's :func:`_head_forward` arrays, not the concatenated
    heads; when no graph is built, it keeps none of them. The backward
    rebuilds one head's output at a time from them with the forward's
    product and division, and takes ``W_o``'s gradient and the head's
    output gradient block by block, which gives the bits of the whole
    products, and hands the rebuilt ``phi(q) @ S`` on to
    :func:`_head_backward`. It stacks the heads' q gradients, and their k
    and v gradients, as column blocks, so x meets ``[W_q]`` and the key/value
    source ``[W_k | W_v]`` in one :func:`~flowcast.tensor._linear_grads`
    call each.
    The residual is the node's first input, so ``backward`` sums x's share
    from it before the attention's share, as an ``add`` node after the call
    would; its output is the same to the bit as that ``add``'s.
    """
    width = params.w_o.shape[0]
    if x.shape[-1] != width:
        raise ShapeError(f"token width {x.shape[-1]} != model dim {width}")
    source = x if cross_kv is None else cross_kv
    if source.shape[-1] != width:
        raise ShapeError(f"key/value width {source.shape[-1]} != model dim {width}")
    if min(x.data.ndim, source.data.ndim) < 3:
        raise ShapeError(f"attention needs (..., T, N, F) features, got {x.shape} and {source.shape}")
    heads, w_qkv = len(params.w_q), (*params.w_q, *params.w_k, *params.w_v)
    widths = sorted({w.shape[-1] for w in w_qkv})
    if len(params.w_k) != heads or len(params.w_v) != heads or len(widths) != 1:
        raise ShapeError(
            f"{heads} query, {len(params.w_k)} key and {len(params.w_v)} value heads "
            f"of widths {widths}: need as many of each, all of one width"
        )
    d = widths[0]
    sources = (x,) if cross_kv is None else (x, cross_kv)
    inputs = (x,) * residual + sources + (params.w_o, *w_qkv)
    keep = T._tracks(inputs)

    xt = x.data.reshape(x.shape[:-3] + (-1, width))  # (..., T*N, F) token views
    st = source.data.reshape(source.shape[:-3] + (-1, width))
    lead = np.broadcast_shapes(xt.shape[:-2], st.shape[:-2])
    cat = np.empty(lead + (xt.shape[-2], heads * d))
    saved = []
    for i, (wq, wk, wv) in enumerate(zip(params.w_q, params.w_k, params.w_v)):
        try:
            _, head = _head_forward(
                xt @ wq.data, st @ wk.data, st @ wv.data,
                out=cat[..., i * d : (i + 1) * d],
            )
        except DegenerateAttentionError as err:
            raise DegenerateAttentionError(f"head {i}: {err}") from err
        if keep:
            saved.append(head)
    out = cat @ params.w_o.data
    if residual:
        out += xt
    del cat

    def vjp(g):
        g_tok, w_o = g.reshape(lead + xt.shape[-2:]), params.w_o.data
        g_o = np.empty(w_o.shape)
        # head i's gradients at q, k and v are the column blocks i, i and heads + i
        g_q = np.empty(xt.shape[:-1] + (heads * d,))
        g_kv = np.empty(st.shape[:-1] + (2 * heads * d,))
        for i, head in enumerate(saved):
            at, at_v = slice(i * d, (i + 1) * d), slice((heads + i) * d, (heads + i + 1) * d)
            # head i's output, rebuilt as the forward made it, meets w_o's row
            # block i; its gradient is g times that block's transpose
            phi_q, _, _, summary, _, den = head
            num = phi_q @ summary
            g_o[at] = T._rows(np.divide(num, den)).T @ T._rows(g_tok)
            g_head = g_tok @ w_o[at].T
            g_q[..., at], g_kv[..., at], g_kv[..., at_v] = _head_backward(g_head, head, num)
            del num  # freed before the next head's products and the input gradients'
        g_x, g_wq = T._linear_grads(xt, [w.data for w in w_qkv[:heads]], g_q)
        del g_q  # freed before the key/value products
        g_src, g_wkv = T._linear_grads(st, [w.data for w in w_qkv[heads:]], g_kv)
        g_res = (T._unbroadcast(g, x.shape),) * residual
        if cross_kv is None:  # x's two shares add up in place
            return (*g_res, np.add(g_src, g_x, out=g_src).reshape(x.shape), g_o, *g_wq, *g_wkv)
        return (*g_res, g_x.reshape(x.shape), g_src.reshape(source.shape), g_o, *g_wq, *g_wkv)

    return T._node(out.reshape(lead + x.shape[-3:]), inputs, vjp)
