"""Context streams fed to the attention tokens.

Static spatial: node embeddings from biased random walks + skip-gram.
Static temporal: one-hot time-of-day / day-of-week positions.
Dynamic temporal: a stacked GRU over the feature sequence.
(The dynamic spatial stream lives in :mod:`flowcast.graph`.)
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .graph import RoadGraph
from .tensor import ShapeError, Tensor

__all__ = [
    "node2vec_walks",
    "skipgram_train",
    "save_embeddings",
    "load_embeddings",
    "temporal_onehot",
    "temporal_encoding",
    "GruLayerParams",
    "gru_cell",
    "gru_sequence",
    "EmbeddingFormatError",
]

EMBED_DIM = 64


class EmbeddingFormatError(ValueError):
    """Embedding file does not match the expected N x dim layout."""


# ---------------------------------------------------------------------------
# Biased random walks (second-order, on the undirected view of the graph)

def node2vec_walks(
    g: RoadGraph,
    p: float = 1.0,
    q: float = 1.0,
    walk_len: int = 80,
    walks_per_node: int = 10,
    seed: int = 0,
) -> list[list[int]]:
    """Generate ``walks_per_node * N`` biased walks of length <= walk_len.

    Return probability is weighted 1/p, in-neighborhood moves 1, and
    outward moves 1/q, following the usual second-order rule. Walks use
    the undirected view (directionality is the diffusion conv's job);
    isolated nodes yield single-node walks.
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"p and q must be positive, got p={p}, q={q}")
    if walk_len < 2:
        raise ValueError(f"walk_len must be >= 2, got {walk_len}")
    weights = g.undirected_weights()
    n = g.n_nodes
    neighbors = [np.nonzero(weights[i])[0] for i in range(n)]
    next_nodes = [nb.tolist() for nb in neighbors]
    rng = np.random.default_rng(seed)

    def transition_cdf(prev: int | None, cur: int) -> array:
        """cdf over ``neighbors[cur]`` of the step out of ``cur``, as
        ``Generator.choice(neighbors[cur], p=w)`` builds it."""
        nbrs = neighbors[cur]
        w = weights[cur, nbrs]
        if prev is not None:
            back = nbrs == prev
            w[back] /= p
            w[~back & ~np.isin(nbrs, neighbors[prev])] /= q
        w /= w.sum()
        cdf = w.cumsum()
        cdf /= cdf[-1]
        if not np.all(np.isfinite(cdf)):
            raise ValueError(f"walk weights out of node {cur} are not finite")
        return array("d", cdf.tolist())

    # (prev, cur) -> transition_cdf(prev, cur); prev is None on a walk's first
    # step. A step draws one double and searches the cdf as choice() does.
    # The cache can hold sum(deg^2) entries, so they are packed 8-byte doubles.
    cdfs: dict[tuple[int | None, int], array] = {}
    walks: list[list[int]] = []
    for _ in range(walks_per_node):
        for start in rng.permutation(n).tolist():
            walk = [start]
            # the weights are symmetric, so only a walk's start can be isolated
            if next_nodes[start]:
                prev, cur = None, start
                while len(walk) < walk_len:
                    key = (prev, cur)
                    if key not in cdfs:
                        cdfs[key] = transition_cdf(prev, cur)
                    step = bisect_right(cdfs[key], rng.random())
                    prev, cur = cur, next_nodes[cur][step]
                    walk.append(cur)
            walks.append(walk)
    return walks


# ---------------------------------------------------------------------------
# Skip-gram with negative sampling over walk co-occurrences

def skipgram_train(
    walks: list[list[int]],
    dim: int = EMBED_DIM,
    window: int = 10,
    negatives: int = 5,
    epochs: int = 5,
    seed: int = 0,
    n_nodes: int | None = None,
    lr: float = 0.025,
    batch: int = 512,
) -> np.ndarray:
    """Train node embeddings on walk co-occurrences; returns (N, dim).

    Nodes that never co-occur (isolated) keep their random initialization.
    Deterministic for a fixed seed.
    """
    if not walks:
        raise ValueError("no walks given; run node2vec_walks first")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n_nodes is None:
        n_nodes = max(max(w) for w in walks) + 1

    flat = np.concatenate([np.asarray(w, dtype=np.int64) for w in walks])
    counts = np.bincount(flat, minlength=n_nodes).astype(np.float64)
    centers, contexts = _walk_pairs(walks, flat, window)

    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_nodes, dim))
    w_out = np.zeros((n_nodes, dim))
    if not centers.size:
        return w_in

    noise = counts**0.75
    noise /= noise.sum()
    # the cdf `Generator.choice(n_nodes, p=noise)` builds, searched the same way
    noise_cdf = noise.cumsum()
    noise_cdf /= noise_cdf[-1]
    n_pairs = centers.size
    total_batches = max(1, epochs * ((n_pairs + batch - 1) // batch))
    bins = np.arange(n_nodes * dim).reshape(n_nodes, dim)
    batch_no = 0
    for _ in range(epochs):
        order = rng.permutation(n_pairs)
        for lo in range(0, n_pairs, batch):
            idx = order[lo : lo + batch]
            cur_lr = lr * max(1e-4, 1.0 - batch_no / total_batches)
            batch_no += 1
            c, o = centers[idx], contexts[idx]
            draws = rng.random((idx.size, negatives))
            neg = noise_cdf.searchsorted(draws, side="right")

            u = w_in[c]  # (B, dim)
            v_pos = w_out[o]
            v_neg = w_out[neg]  # (B, neg, dim)

            s_pos = _sigmoid(np.einsum("bd,bd->b", u, v_pos))
            s_neg = _sigmoid(np.einsum("bd,bnd->bn", u, v_neg))

            coef_pos = (s_pos - 1.0)[:, None]  # d/dscore of -log sigmoid
            coef_neg = s_neg[:, :, None]

            # Per-node MEAN gradients: a node hit many times in one batch
            # (tiny vocabularies) must not receive a proportionally huge
            # step, or the stale-weight updates compound and diverge.
            grad_u = coef_pos * v_pos + np.einsum("bnk,bnd->bd", coef_neg, v_neg)
            grad_in = _scatter_rows(bins, c, grad_u)
            cnt_in = np.bincount(c, minlength=n_nodes)
            hit = cnt_in > 0
            w_in[hit] -= cur_lr * grad_in[hit] / cnt_in[hit, None]

            # each target row takes its positive terms first, then its negatives
            targets = np.concatenate([o, neg.ravel()])
            grad_rows = np.empty((targets.size, dim))
            np.multiply(coef_pos, u, out=grad_rows[: idx.size])
            np.multiply(
                coef_neg, u[:, None, :], out=grad_rows[idx.size :].reshape(v_neg.shape)
            )
            grad_out = _scatter_rows(bins, targets, grad_rows)
            cnt_out = np.bincount(targets, minlength=n_nodes)
            hit = cnt_out > 0
            w_out[hit] -= cur_lr * grad_out[hit] / cnt_out[hit, None]
    if not np.all(np.isfinite(w_in)):
        raise FloatingPointError("skip-gram training produced non-finite embeddings")
    return w_in


def _walk_pairs(
    walks: list[list[int]], flat: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) node pairs: every position of each walk is a center,
    and its contexts are the other positions within ``window`` of it in the
    same walk. Pairs run center by center, contexts in walk order.
    ``flat`` is the walks concatenated."""
    lengths = np.array([len(w) for w in walks])
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)  # of each position's walk
    stop = start + np.repeat(lengths, lengths)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    ctx = np.arange(flat.size)[:, None] + offsets  # (positions, 2 * window)
    keep = (ctx >= start[:, None]) & (ctx < stop[:, None])
    return np.broadcast_to(flat[:, None], ctx.shape)[keep], flat[ctx[keep]]


def _scatter_rows(
    bins: np.ndarray, targets: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Sums of ``rows`` grouped by ``targets``, shaped like ``bins``.

    ``bins[t, d]`` is the flat bin of node t's column d. np.bincount adds
    each bin's entries in row order, as np.add.at does, so the sums are the
    same to the bit.
    """
    sums = np.bincount(bins[targets].ravel(), weights=rows.ravel(), minlength=bins.size)
    return sums.reshape(bins.shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Embedding file I/O: N lines of `dim` space-separated decimals

def save_embeddings(path, embeddings: np.ndarray) -> None:
    np.savetxt(path, np.asarray(embeddings, dtype=np.float64), fmt="%.17g")


def load_embeddings(path, n_nodes: int, dim: int = EMBED_DIM) -> np.ndarray:
    """Read an (n_nodes, dim) embedding file written by :func:`save_embeddings`.

    Any departure from that layout, a non-numeric or non-finite value, or
    text that is not UTF-8 raises :class:`EmbeddingFormatError`.
    """
    path = Path(path)
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                values = raw.split()
                if not values:
                    continue
                if len(values) != dim:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: expected {dim} columns, found {len(values)}"
                    )
                try:
                    row = [float(v) for v in values]
                except ValueError as err:
                    raise EmbeddingFormatError(f"{path}:{lineno}: {err}") from None
                bad = [v for v, x in zip(values, row) if not math.isfinite(x)]
                if bad:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: non-finite value {bad[0]!r}"
                    )
                rows.append(row)
    except UnicodeDecodeError as err:
        raise EmbeddingFormatError(f"{path}: not UTF-8 text: {err}") from None
    if len(rows) != n_nodes:
        raise EmbeddingFormatError(
            f"{path}: expected {n_nodes} rows, found {len(rows)}"
        )
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# Static temporal context

def temporal_onehot(
    time_index: int, slots_per_day: int, start_weekday: int
) -> np.ndarray:
    """One-hot pair over (slot of day, day of week): width slots_per_day + 7.

    ``time_index`` is the absolute step since the dataset start;
    ``start_weekday`` is that start's weekday, Monday = 0.
    """
    if slots_per_day < 1:
        raise ValueError(f"slots_per_day must be >= 1, got {slots_per_day}")
    vec = np.zeros(slots_per_day + 7)
    slot = time_index % slots_per_day
    weekday = (time_index // slots_per_day + start_weekday) % 7
    vec[slot] = 1.0
    vec[slots_per_day + weekday] = 1.0
    return vec


def temporal_encoding(
    t0: int, steps: int, slots_per_day: int, start_weekday: int
) -> np.ndarray:
    """Stacked one-hots for ``steps`` consecutive time indices from ``t0``."""
    return np.stack(
        [temporal_onehot(t0 + i, slots_per_day, start_weekday) for i in range(steps)]
    )


# ---------------------------------------------------------------------------
# Dynamic temporal context: gated recurrent unit

@dataclass
class GruLayerParams:
    """One GRU layer: reset/update/candidate gates, each F x F plus bias."""

    w_xr: Tensor
    w_hr: Tensor
    w_xu: Tensor
    w_hu: Tensor
    w_xh: Tensor
    w_hh: Tensor
    b_r: Tensor
    b_u: Tensor
    b_h: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.{field}": getattr(self, field)
            for field in (
                "w_xr", "w_hr", "w_xu", "w_hu", "w_xh", "w_hh",
                "b_r", "b_u", "b_h",
            )
        }


def gru_cell(x_t: Tensor, h_prev: Tensor, layer: GruLayerParams) -> Tensor:
    """One recurrence step on (..., N, F): H = U * H_prev + (1 - U) * tanh-candidate."""
    if x_t.shape != h_prev.shape:
        raise ShapeError(f"gru_cell: input {x_t.shape} vs hidden {h_prev.shape}")
    r = T.sigmoid(x_t @ layer.w_xr + h_prev @ layer.w_hr + layer.b_r)
    u = T.sigmoid(x_t @ layer.w_xu + h_prev @ layer.w_hu + layer.b_u)
    h_cand = T.tanh(x_t @ layer.w_xh + (r * h_prev) @ layer.w_hh + layer.b_h)
    return u * h_prev + (1.0 - u) * h_cand


def gru_sequence(
    x: Tensor,
    h0: list[Tensor],
    layers: list[GruLayerParams],
) -> tuple[Tensor, list[Tensor]]:
    """Run stacked GRU layers over a (..., T, N, F) sequence, strictly causal.

    Layer l consumes layer l-1's output sequence. Returns the top layer's
    outputs for every step plus each layer's final (..., N, F) hidden state.
    """
    if len(h0) != len(layers):
        raise ShapeError(f"{len(layers)} layers but {len(h0)} initial states")
    seq = [x[..., t, :, :] for t in range(x.shape[-3])]
    finals: list[Tensor] = []
    for h_init, layer in zip(h0, layers):
        h = h_init
        outs: list[Tensor] = []
        for x_t in seq:
            h = gru_cell(x_t, h, layer)
            outs.append(h)
        seq = outs
        finals.append(h)
    return T.reshape(T.concat(seq, axis=-2), x.shape), finals
