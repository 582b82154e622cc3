"""Plain reference forms of the model's kernels, used only as test oracles.

Each one computes the textbook formula directly, with none of the
rewriting the library applies, so a test can compare the two. The walk and
skip-gram oracles are the per-step loops the library's vectorized forms
replaced (``rng.choice`` with ``p``, nested pair lists, ``np.add.at``);
the library must reproduce their output bit for bit.
"""

import math

import numpy as np

from flowcast import tensor as T
from flowcast.graph import RoadGraph, degree_normalize
from flowcast.tensor import ShapeError, Tensor


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
    fwd = np.linalg.matrix_power(degree_normalize(a, "out"), k_step)
    bwd = np.linalg.matrix_power(degree_normalize(a, "in"), k_step)
    return T.matmul(T.matmul(Tensor(fwd + bwd), x), w)


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

