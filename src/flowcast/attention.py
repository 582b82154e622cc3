"""Attention kernels over joint space-time token sequences.

``softmax_attention`` is the quadratic reference: it materializes the full
score matrix. ``linear_attention`` replaces the softmax with a positive
exponential feature map and exploits matmul associativity: the key-value
summary (d x d) and key normalizer (d) are accumulated once, so time and
memory are linear in the token count instead of quadratic. The model
flattens its (..., T, N, F) features into tokens with
:func:`to_joint_tokens` only to attend.

Every function takes optional leading batch axes, ``(..., M, d)``; each
sample keeps its own summary and normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "AttentionParams",
    "to_joint_tokens",
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
# Token layout

def to_joint_tokens(x: Tensor) -> Tensor:
    """Flatten (..., T, N, F) into (..., T*N, F) tokens, time-major."""
    if x.data.ndim < 3:
        raise ShapeError(f"expected a (..., T, N, F) tensor, got {x.shape}")
    *lead, steps, nodes, width = x.shape
    return T.reshape(x, (*lead, steps * nodes, width))


# ---------------------------------------------------------------------------
# Quadratic reference

def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> None:
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2:
        raise ShapeError("attention operands must have rank >= 2")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query dim {q.shape} vs key dim {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key rows {k.shape} vs value rows {v.shape}")


def softmax_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d)) V — O(M^2) time and memory."""
    _check_qkv(q, k, v)
    d = q.shape[-1]
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d))
    return T.matmul(T.softmax(scores, axis=-1), v)


# ---------------------------------------------------------------------------
# Linear attention

def linear_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Kernelized attention in right-associated order: O(M) in tokens.

    With the feature map phi = exp, accumulates S = sum_j phi(k_j)^T v_j
    (d x d) and z = sum_j phi(k_j) once per sample, then each output row
    is (phi(q_i) S) / (phi(q_i) . z). Before exponentiating, each query
    row loses its own maximum and each sample's keys one shared maximum
    (over the last two axes), both gradient-detached: either shift scales
    a row's numerator and denominator alike, so the ratio is unchanged
    while exp stays in range. A per-row key shift would not cancel.
    """
    _check_qkv(q, k, v)
    phi_q = T.exp(T.sub(q, Tensor(q.data.max(axis=-1, keepdims=True))))
    phi_k = T.exp(T.sub(k, Tensor(k.data.max(axis=(-2, -1), keepdims=True))))
    summary = T.matmul(T.transpose(phi_k), v)  # (..., d, d_v)
    normalizer = T.sum_(phi_k, axis=-2)  # (..., d)
    num = T.matmul(phi_q, summary)  # (..., M, d_v)
    den = T.matmul(phi_q, T.reshape(normalizer, normalizer.shape + (1,)))
    bad = ~(den.data >= 1e-30)  # catches underflow and NaN alike
    if bad.any():
        *sample, row, _ = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f"sample {', '.join(map(str, sample))}, " if sample else ""
        raise DegenerateAttentionError(
            f"attention normalizer degenerate at {where}query row {row}"
        )
    return T.div(num, den)


def multi_head_attention(
    x: Tensor, cross_kv: Tensor | None, params: AttentionParams
) -> Tensor:
    """Heads of linear attention, concatenated and output-projected.

    Queries come from ``x``; keys/values from ``cross_kv`` when given
    (cross-attention) and from ``x`` otherwise. The head count is
    ``len(params.w_q)`` and the model width is that of ``params.w_o``.
    A degenerate normalizer is re-raised naming the head.
    """
    width = params.w_o.shape[0]
    if x.shape[-1] != width:
        raise ShapeError(f"token width {x.shape[-1]} != model dim {width}")
    source = x if cross_kv is None else cross_kv
    if source.shape[-1] != width:
        raise ShapeError(f"key/value width {source.shape[-1]} != model dim {width}")
    heads = []
    for i, (wq, wk, wv) in enumerate(zip(params.w_q, params.w_k, params.w_v)):
        qh = T.matmul(x, wq)
        kh = T.matmul(source, wk)
        vh = T.matmul(source, wv)
        try:
            heads.append(linear_attention(qh, kh, vh))
        except DegenerateAttentionError as err:
            raise DegenerateAttentionError(f"head {i}: {err}") from err
    return T.matmul(T.concat(heads, axis=-1), params.w_o)
