"""Context streams fed to the attention tokens.

Static spatial: node embeddings from biased random walks + skip-gram.
Static temporal: one-hot time-of-day / day-of-week positions.
Dynamic temporal: a stacked GRU over the feature sequence.
(The dynamic spatial stream lives in :mod:`flowcast.graph`.)
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import _read_table
from .graph import RoadGraph
from .tensor import ShapeError, Tensor

__all__ = [
    "node2vec_walks",
    "skipgram_train",
    "save_embeddings",
    "load_embeddings",
    "temporal_encoding",
    "GruLayerParams",
    "gru_cell",
    "gru_stack",
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
    Deterministic for a fixed seed. A count below 1 raises ValueError.
    """
    if not walks:
        raise ValueError("no walks given; run node2vec_walks first")
    sizes = dict(dim=dim, window=window, negatives=negatives, epochs=epochs, batch=batch)
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
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
        # the order rng.permutation(n_pairs) draws, held as int32
        order = np.arange(n_pairs, dtype=np.int32)
        rng.shuffle(order)
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
            del v_pos, v_neg  # freed before the output rows' buffers are made
            _mean_step(w_in, bins, c, grad_u, cur_lr)

            # each target row takes its positive terms first, then its negatives
            targets = np.concatenate([o, neg.ravel()])
            grad_rows = np.empty((targets.size, dim))
            np.multiply(coef_pos, u, out=grad_rows[: idx.size])
            np.multiply(
                coef_neg, u[:, None, :], out=grad_rows[idx.size :].reshape(neg.shape + (dim,))
            )
            _mean_step(w_out, bins, targets, grad_rows, cur_lr)
    if not np.all(np.isfinite(w_in)):
        raise FloatingPointError("skip-gram training produced non-finite embeddings")
    return w_in


def _walk_pairs(
    walks: list[list[int]], flat: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) node pairs: every position of each walk is a center,
    and its contexts are the other positions within ``window`` of it in the
    same walk. Pairs run center by center, contexts in walk order.
    ``flat`` is the walks concatenated. The pairs are int32: they only
    index node rows."""
    lengths = np.array([len(w) for w in walks])
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)  # of each position's walk
    stop = start + np.repeat(lengths, lengths)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    ctx = np.arange(flat.size)[:, None] + offsets  # (positions, 2 * window)
    keep = (ctx >= start[:, None]) & (ctx < stop[:, None])
    nodes = flat.astype(np.int32)
    return np.broadcast_to(nodes[:, None], ctx.shape)[keep], nodes[ctx[keep]]


def _mean_step(w: np.ndarray, bins, targets, rows, lr: float) -> None:
    """Step each row of ``w`` that ``targets`` hits, in place, by ``lr`` times
    the mean of the gradient ``rows`` aimed at it. ``bins[t, d]`` is the flat
    bin of node t's column d; np.bincount adds each bin's entries in row
    order, as np.add.at does, so the sums are the same to the bit."""
    sums = np.bincount(bins[targets].ravel(), weights=rows.ravel(), minlength=bins.size)
    cnt = np.bincount(targets, minlength=w.shape[0])
    hit = cnt > 0
    w[hit] -= lr * sums.reshape(bins.shape)[hit] / cnt[hit, None]


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
    emb = _read_table(path, None, dim, EmbeddingFormatError)
    if len(emb) != n_nodes:
        raise EmbeddingFormatError(f"{path}: expected {n_nodes} rows, found {len(emb)}")
    return emb


# ---------------------------------------------------------------------------
# Static temporal context

def temporal_encoding(t0, steps: int, slots_per_day: int, start_weekday: int) -> np.ndarray:
    """One-hot pairs over (slot of day, day of week), width slots_per_day + 7,
    for ``steps`` consecutive time indices from each start in ``t0`` (an int
    or a sequence of them): shape ``np.shape(t0) + (steps, slots_per_day + 7)``.

    A time index is the absolute step since the dataset start;
    ``start_weekday`` is that start's weekday, Monday = 0.
    """
    if slots_per_day < 1:
        raise ValueError(f"slots_per_day must be >= 1, got {slots_per_day}")
    t = np.add.outer(np.asarray(t0, dtype=np.int64), np.arange(steps))
    hot = np.zeros(t.shape + (slots_per_day + 7,))
    weekday = (t // slots_per_day + start_weekday) % 7
    np.put_along_axis(hot, np.stack([t % slots_per_day, slots_per_day + weekday], -1), 1.0, -1)
    return hot


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
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}


def gru_cell(x: np.ndarray, h: np.ndarray, w, out=None) -> tuple[np.ndarray, object]:
    """One recurrence step on (..., N, F) arrays: H = U * H_prev + (1 - U) * C,
    with gates R = sigmoid(X W_xr + H_prev W_hr + b_r), U = sigmoid(X W_xu +
    H_prev W_hu + b_u) and candidate C = tanh(X W_xh + (R * H_prev) W_hh + b_h),
    ``w`` holding the weights in the field order of :class:`GruLayerParams`.

    Returns H, written into ``out`` when given, and its vjp (to X, H_prev,
    then each weight), which keeps X, H_prev, R, U and C; it rebuilds
    R * H_prev with the forward's one multiply, so the bits hold. The
    forward runs the composed cell's numpy ops in order, adding in place
    where it made a new array, so H is the same to the bit. The backward
    holds the gate gradients as the column blocks [r | u | c] of one array,
    so X meets [W_xr | W_xu | W_xh] and H_prev [W_hr | W_hu] in one
    :func:`~flowcast.tensor._linear_grads` call each.
    """
    w_xr, w_hr, w_xu, w_hu, w_xh, w_hh, b_r, b_u, b_h = w

    def affine(w_x, w_h, b, hidden):
        # (x @ w_x + hidden @ w_h) + b, added in place in one buffer
        z = x @ w_x
        z += hidden @ w_h
        z += b
        return z

    r = T._sigmoid(affine(w_xr, w_hr, b_r, h))
    u = T._sigmoid(affine(w_xu, w_hu, b_u, h))
    cand = np.tanh(affine(w_xh, w_hh, b_h, r * h))
    out = np.multiply(u, h, out=out)
    out += (1.0 - u) * cand

    def vjp(g):
        # gradients at the pre-activations of the gates, as the column blocks
        # [r | u | c] of one array, plus the gradient at R * H_prev
        f = g.shape[-1]
        gates = np.empty(g.shape[:-1] + (3 * f,))
        a_r, a_u, a_c = T._cols(gates, [f] * 3)
        one_minus_u = 1.0 - u
        np.multiply(g * one_minus_u, 1.0 - cand * cand, out=a_c)
        d_rh, g_hh = T._linear_grads(r * h, [w_hh], a_c)
        np.multiply(d_rh * h * r, 1.0 - r, out=a_r)
        np.multiply(g * (h - cand) * u, one_minus_u, out=a_u)
        dx, (g_xr, g_xu, g_xh) = T._linear_grads(x, [w_xr, w_xu, w_xh], gates)
        dh_ru, (g_hr, g_hu) = T._linear_grads(h, [w_hr, w_hu], gates[..., : 2 * f])
        dh = g * u
        dh += d_rh * r
        dh += dh_ru
        g_br, g_bu, g_bh = T._cols(T._rows(gates).sum(axis=0), [f] * 3)
        return dx, dh, g_xr, g_hr, g_xu, g_hu, g_xh, *g_hh, g_br, g_bu, g_bh

    return out, vjp


def gru_stack(
    x: Tensor, h0: list[Tensor], layers: list[GruLayerParams], steps: int | None = None,
    cell=gru_cell,
) -> Tensor:
    """Stacked GRU layers from states ``h0`` as one graph node over a
    (..., T_x, N, F) sequence ``x``, giving the top layer's state at each of
    ``steps`` steps (T_x if not given, never fewer), (..., steps, N, F).
    Layer i reads layer i - 1's new state; layer 0 reads step t of ``x`` while
    t < T_x, then the top state of step t - 1, written into the output.
    :mod:`flowcast.model` passes the ``cell`` it looks up, so that a tracer
    wrapping it there times the rollout's cells alone. The backward runs back
    through time over the cells' vjps, kept only when the node is tracked,
    adding each gradient's shares in the order per-step cell nodes did.
    """
    t_x = x.shape[-3] if len(x.shape) > 2 else 0  # so a rank below 3 is rejected
    steps, state = t_x if steps is None else steps, x.shape[:-3] + x.shape[-2:]
    if not (0 < t_x <= steps and layers and [h.shape for h in h0] == [state] * len(layers)):
        raise ShapeError(f"gru_stack: input {x.shape} vs hidden {[h.shape for h in h0]}")
    inputs = (x, *h0, *(getattr(layer, f.name) for layer in layers for f in fields(layer)))
    keep, n = T._tracks(inputs), len(layers)
    w = [[getattr(layer, f.name).data for f in fields(layer)] for layer in layers]
    out, h, vjps = np.empty(state[:-2] + (steps,) + state[-2:]), [t.data for t in h0], []
    for t in range(steps):
        below = x.data[..., t, :, :] if t < t_x else out[..., t - 1, :, :]
        for i in range(n):
            below, step = cell(below, h[i], w[i], out=out[..., t, :, :] if i == n - 1 else None)
            h[i] = below
            if keep:
                vjps.append(step)
            del step  # untracked, its gate arrays go before the next cell's are made

    def vjp(g):
        # each state's gradient shares: the output's, then each reader's as it runs
        dx, dw, shares = np.empty(x.shape), [None] * n, [[] for _ in h0]
        for t in range(steps - 1, -1, -1):
            shares[-1].insert(0, g[..., t, :, :])
            for i in range(n - 1, -1, -1):
                d, shares[i] = shares[i], []
                d_in, d_h, *step_dw = vjps[t * n + i](sum(d[1:], d[0]))
                if i or t >= t_x:  # layer i - 1's state, or the fed-back top state
                    shares[i - 1].append(d_in)
                else:
                    dx[..., t, :, :] = d_in
                shares[i].append(d_h)
                for acc, s in zip(dw[i] or (), step_dw):
                    acc += s  # from the last step to the first
                dw[i] = dw[i] or step_dw
        return (dx, *(d_h for d_h, in shares), *(s for layer_dw in dw for s in layer_dw))

    return T._node(out, inputs, vjp)


def gru_sequence(
    x: Tensor, h0: list[Tensor], layers: list[GruLayerParams]
) -> tuple[Tensor, list[Tensor]]:
    """Run stacked GRU layers over a (..., T, N, F) sequence, strictly causal.

    Layer l consumes layer l-1's output sequence; each layer is one
    :func:`gru_stack` node. Returns the top layer's outputs for every step
    plus each layer's final (..., N, F) hidden state.
    """
    if len(h0) != len(layers):
        raise ShapeError(f"{len(layers)} layers but {len(h0)} initial states")
    outs = [x]
    for h_init, layer in zip(h0, layers):
        outs.append(gru_stack(outs[-1], [h_init], [layer]))
    # copied once every layer has run, so no final's copy is held while one runs
    return outs[-1], [T._slice(out, np.s_[..., -1, :, :]) for out in outs[1:]]
