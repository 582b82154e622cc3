"""Plain reference forms of the model's kernels, used only as test oracles.

Each one computes the textbook formula directly, with none of the
rewriting the library applies, so a test can compare the two. The walk and
skip-gram oracles are the per-step loops the library's vectorized forms
replaced (``rng.choice`` with ``p``, nested pair lists, ``np.add.at``);
the library must reproduce their output bit for bit. The GRU, fusion,
attention and hop-conv oracles are the forms composed of autodiff ops that
the fused single-node ``gru_cell_node`` (``context.gru_cell`` as one
graph node), ``model._fuse``, ``attention.multi_head_attention`` /
``linear_attention`` and ``graph.multi_hop_conv`` replaced;
``gru_sequence`` is the per-step form of the one-node-per-layer GRU, a
slice per step, a fused cell per step and layer, and a concat, and
``gru_stack`` the per-step form of the stacked GRU node
``context.gru_stack``, over a sequence and then rolled out past its end as
the transform rollout runs it. The full-depth BFS distance matrix and
its float shells are the reference for ``graph.hop_shells``;
``graph_from_edges`` fills an adjacency from an edge list as
``graph.load_adjacency`` fills it from a file's lines.
"""

import math
from collections import deque
from dataclasses import fields

import numpy as np

from flowcast import tensor as T
from flowcast.attention import AttentionParams, DegenerateAttentionError, _check_qkv
from flowcast import context
from flowcast.context import GruLayerParams
from flowcast.graph import RoadGraph, row_normalize
from flowcast.tensor import ShapeError, Tensor

import ops

# Sentinel for node pairs with no directed path; never a valid hop count.
UNREACHABLE = -1


def shortest_path_hops(g: RoadGraph) -> np.ndarray:
    """Directed hop-count matrix S: S[i,j] = min #edges from i to j.

    S[i,i] = 0; pairs with no path hold :data:`UNREACHABLE`. An edge is an
    off-diagonal non-zero of the adjacency; its weight does not participate
    (a hop is a hop).
    """
    n = g.n_nodes
    out_neighbors = [
        [dst for dst in np.flatnonzero(g.adjacency[src]) if dst != src] for src in range(n)
    ]
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for start in range(n):
        dist[start, start] = 0
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            d = dist[start, cur]
            for nxt in out_neighbors[cur]:
                if dist[start, nxt] == UNREACHABLE:
                    dist[start, nxt] = d + 1
                    queue.append(nxt)
    return dist


def graph_from_edges(n: int, edges) -> RoadGraph:
    """The n-node graph of ``(src, dst, weight)`` edges, filled in list order
    as ``load_adjacency`` fills its lines: a repeated edge takes its last
    weight."""
    adj = np.zeros((n, n))
    for src, dst, w in edges:
        adj[src, dst] = w
    return RoadGraph(adj)


def hop_adjacency(s: np.ndarray, k: int) -> np.ndarray:
    """Split the hop-distance matrix into exact-hop shells 1..k.

    Returns a (k, N, N) stack in {0, 1}; layer i-1 marks pairs exactly i
    hops apart.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return np.stack([(s == i).astype(np.float64) for i in range(1, k + 1)])


def multi_hop_conv(x: Tensor, trans: np.ndarray, w_x: list[Tensor], w_d: Tensor) -> Tensor:
    """Head i is ``trans[i] @ (X W_x[i])``; the heads are concatenated and
    projected by ``w_d``."""
    if len(w_x) != trans.shape[0]:
        raise ShapeError(f"expected {trans.shape[0]} head weights, got {len(w_x)}")
    heads = [ops.matmul(Tensor(trans[i]), ops.matmul(x, w)) for i, w in enumerate(w_x)]
    return ops.matmul(ops.concat(heads, axis=-1), w_d)


def similarity_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, sim=None
) -> np.ndarray:
    """Generalized attention: out_i = sum_j sim(q_i,k_j) v_j / sum_j sim.

    With the default ``sim = exp(q k^T / sqrt(d))`` this equals
    ``softmax_attention``; with ``sim = phi(q) . phi(k)`` it is the
    unrewritten form of ``linear_attention``. Plain-array evaluation.
    """
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    d = q.shape[1]
    if sim is None:
        def sim(qi, kj):
            return math.exp(float(qi @ kj) / math.sqrt(d))

    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        weights = np.array([sim(q[i], k[j]) for j in range(k.shape[0])])
        out[i] = (weights[:, None] * v).sum(axis=0) / weights.sum()
    return out


def diffusion_conv(x: Tensor, a: np.ndarray, k_step: int, w: Tensor) -> Tensor:
    """Step-``k_step`` diffusion term: ((D_o^-1 A)^k + (D_i^-1 A^T)^k) X W.

    Reference for ``multi_hop_conv``; k_step = 0 gives 2 X W since both
    transition powers are the identity.
    """
    if k_step < 0:
        raise ValueError(f"k_step must be >= 0, got {k_step}")
    if x.data.ndim != 2 or x.shape[0] != a.shape[0]:
        raise ShapeError(f"diffusion_conv: x {x.shape} vs adjacency {a.shape}")
    fwd = np.linalg.matrix_power(row_normalize(a), k_step)
    bwd = np.linalg.matrix_power(row_normalize(a.T), k_step)
    return ops.matmul(ops.matmul(Tensor(fwd + bwd), x), w)


def node2vec_walks(
    g: RoadGraph,
    p: float = 1.0,
    q: float = 1.0,
    walk_len: int = 80,
    walks_per_node: int = 10,
    seed: int = 0,
) -> list[list[int]]:
    """Reference for ``context.node2vec_walks``: each step reweights the
    neighbors in a Python loop and draws with ``rng.choice(nbrs, p=w)``."""
    if p <= 0 or q <= 0:
        raise ValueError(f"p and q must be positive, got p={p}, q={q}")
    if walk_len < 2:
        raise ValueError(f"walk_len must be >= 2, got {walk_len}")
    weights = g.undirected_weights()
    n = g.n_nodes
    neighbors = [np.nonzero(weights[i])[0] for i in range(n)]
    neighbor_sets = [set(nb.tolist()) for nb in neighbors]
    rng = np.random.default_rng(seed)

    def step(prev: int | None, cur: int) -> int | None:
        nbrs = neighbors[cur]
        if nbrs.size == 0:
            return None
        w = weights[cur, nbrs].copy()
        if prev is not None:
            for idx, nxt in enumerate(nbrs):
                if nxt == prev:
                    w[idx] /= p
                elif nxt not in neighbor_sets[prev]:
                    w[idx] /= q
        w /= w.sum()
        return int(rng.choice(nbrs, p=w))

    walks: list[list[int]] = []
    for _ in range(walks_per_node):
        order = rng.permutation(n)
        for start in order:
            walk = [int(start)]
            while len(walk) < walk_len:
                prev = walk[-2] if len(walk) >= 2 else None
                nxt = step(prev, walk[-1])
                if nxt is None:
                    break
                walk.append(nxt)
            walks.append(walk)
    return walks


def skipgram_train(
    walks: list[list[int]],
    dim: int = 64,
    window: int = 10,
    negatives: int = 5,
    epochs: int = 5,
    seed: int = 0,
    n_nodes: int | None = None,
    lr: float = 0.025,
    batch: int = 512,
) -> np.ndarray:
    """Reference for ``context.skipgram_train``: per-pair Python lists,
    ``rng.choice`` negatives and ``np.add.at`` scatters."""
    if not walks:
        raise ValueError("no walks given; run node2vec_walks first")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n_nodes is None:
        n_nodes = max(max(w) for w in walks) + 1

    centers_list: list[int] = []
    contexts_list: list[int] = []
    counts = np.zeros(n_nodes)
    for walk in walks:
        length = len(walk)
        for i, center in enumerate(walk):
            counts[center] += 1
            lo, hi = max(0, i - window), min(length, i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers_list.append(center)
                    contexts_list.append(walk[j])

    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_nodes, dim))
    w_out = np.zeros((n_nodes, dim))
    if not centers_list:
        return w_in

    centers = np.asarray(centers_list, dtype=np.int64)
    contexts = np.asarray(contexts_list, dtype=np.int64)
    noise = counts**0.75
    noise /= noise.sum()

    n_pairs = centers.size
    total_batches = max(1, epochs * ((n_pairs + batch - 1) // batch))
    batch_no = 0
    for _ in range(epochs):
        order = rng.permutation(n_pairs)
        for lo in range(0, n_pairs, batch):
            idx = order[lo : lo + batch]
            cur_lr = lr * max(1e-4, 1.0 - batch_no / total_batches)
            batch_no += 1
            c, o = centers[idx], contexts[idx]
            neg = rng.choice(n_nodes, size=(idx.size, negatives), p=noise)

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
            grad_in = np.zeros_like(w_in)
            cnt_in = np.zeros(n_nodes)
            np.add.at(grad_in, c, grad_u)
            np.add.at(cnt_in, c, 1.0)
            hit = cnt_in > 0
            w_in[hit] -= cur_lr * grad_in[hit] / cnt_in[hit, None]

            grad_out = np.zeros_like(w_out)
            cnt_out = np.zeros(n_nodes)
            np.add.at(grad_out, o, coef_pos * u)
            np.add.at(cnt_out, o, 1.0)
            np.add.at(
                grad_out, neg.ravel(), (coef_neg * u[:, None, :]).reshape(-1, dim)
            )
            np.add.at(cnt_out, neg.ravel(), 1.0)
            hit = cnt_out > 0
            w_out[hit] -= cur_lr * grad_out[hit] / cnt_out[hit, None]
    if not np.all(np.isfinite(w_in)):
        raise FloatingPointError("skip-gram training produced non-finite embeddings")
    return w_in


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_cell(x_t: Tensor, h_prev: Tensor, layer: GruLayerParams) -> Tensor:
    """One recurrence step on (..., N, F): H = U * H_prev + (1 - U) * tanh-candidate."""
    if x_t.shape != h_prev.shape:
        raise ShapeError(f"gru_cell: input {x_t.shape} vs hidden {h_prev.shape}")
    r = ops.sigmoid(ops.add(ops.add(ops.matmul(x_t, layer.w_xr), ops.matmul(h_prev, layer.w_hr)),
                          layer.b_r))
    u = ops.sigmoid(ops.add(ops.add(ops.matmul(x_t, layer.w_xu), ops.matmul(h_prev, layer.w_hu)),
                          layer.b_u))
    h_cand = ops.tanh(ops.add(
        ops.add(ops.matmul(x_t, layer.w_xh), ops.matmul(ops.mul(r, h_prev), layer.w_hh)), layer.b_h
    ))
    return ops.add(ops.mul(u, h_prev), ops.mul(ops.sub(Tensor(1.0), u), h_cand))


def gru_cell_node(x_t: Tensor, h_prev: Tensor, layer: GruLayerParams) -> Tensor:
    """``context.gru_cell`` on (..., N, F) as one graph node."""
    params = tuple(getattr(layer, f.name) for f in fields(layer))
    out, vjp = context.gru_cell(x_t.data, h_prev.data, [p.data for p in params])
    return T._node(out, (x_t, h_prev) + params, vjp)


def gru_sequence(
    x: Tensor, h0: list[Tensor], layers: list[GruLayerParams]
) -> tuple[Tensor, list[Tensor]]:
    """Stacked GRU layers over a (..., T, N, F) sequence, one fused
    ``gru_cell_node`` per step and layer on per-step slices."""
    if len(h0) != len(layers):
        raise ShapeError(f"{len(layers)} layers but {len(h0)} initial states")
    seq = [T._slice(x, np.s_[..., t, :, :]) for t in range(x.shape[-3])]
    finals: list[Tensor] = []
    for h_init, layer in zip(h0, layers):
        h = h_init
        outs: list[Tensor] = []
        for x_t in seq:
            h = gru_cell_node(x_t, h, layer)
            outs.append(h)
        seq = outs
        finals.append(h)
    return ops.reshape(ops.concat(seq, axis=-2), x.shape), finals


def gru_stack(
    x: Tensor, h0: list[Tensor], layers: list[GruLayerParams], steps: int | None = None
) -> Tensor:
    """Stacked GRU layers from states ``h0``, a fused ``gru_cell_node`` per
    step and layer, each step's layer 0 reading a slice of the (..., T_x, N, F)
    ``x`` while t < T_x and then the top state before it, for ``steps`` steps
    (T_x if not given); the top states join by a concat and a reshape into
    (..., steps, N, F)."""
    hidden = list(h0)
    generated: list[Tensor] = []
    for t in range(x.shape[-3] if steps is None else steps):
        layer_in = T._slice(x, np.s_[..., t, :, :]) if t < x.shape[-3] else generated[-1]
        for i, layer in enumerate(layers):
            hidden[i] = gru_cell_node(layer_in, hidden[i], layer)
            layer_in = hidden[i]
        generated.append(layer_in)
    top = generated[0].shape
    return ops.reshape(ops.concat(generated, axis=-2), top[:-2] + (len(generated),) + top[-2:])


def fuse(w: Tensor, b: Tensor, streams: list[Tensor]) -> Tensor:
    """``concat(streams, axis=-1) @ w + b`` without the concat.

    Stream i meets its own block of ``w``, the rows from the summed widths
    of the streams before it, and the products add up by broadcasting, so
    static context of shape (N, F) or (..., T, 1, F) joins (..., T, N, F)
    features without being tiled.
    """
    out, lo = b, 0
    for stream in streams:
        out = ops.add(out, ops.matmul(stream, T._slice(w, np.s_[lo : lo + stream.shape[-1]])))
        lo += stream.shape[-1]
    return out


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
    phi_q = ops.exp(ops.sub(q, Tensor(q.data.max(axis=-1, keepdims=True))))
    phi_k = ops.exp(ops.sub(k, Tensor(k.data.max(axis=(-2, -1), keepdims=True))))
    summary = ops.matmul(ops.transpose(phi_k), v)  # (..., d, d_v)
    normalizer = ops.sum_(phi_k, axis=-2)  # (..., d)
    num = ops.matmul(phi_q, summary)  # (..., M, d_v)
    den = ops.matmul(phi_q, ops.reshape(normalizer, normalizer.shape + (1,)))
    bad = ~(den.data >= 1e-30)  # catches underflow and NaN alike
    if bad.any():
        *sample, row, _ = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f"sample {', '.join(map(str, sample))}, " if sample else ""
        raise DegenerateAttentionError(
            f"attention normalizer degenerate at {where}query row {row}"
        )
    return ops.div(num, den)


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
        qh = ops.matmul(x, wq)
        kh = ops.matmul(source, wk)
        vh = ops.matmul(source, wv)
        try:
            heads.append(linear_attention(qh, kh, vh))
        except DegenerateAttentionError as err:
            raise DegenerateAttentionError(f"head {i}: {err}") from err
    return ops.matmul(ops.concat(heads, axis=-1), params.w_o)
