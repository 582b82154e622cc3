"""Plain reference forms of the model's kernels, used only as test oracles.

Each one computes the textbook formula directly, with none of the
rewriting the library applies, so a test can compare the two.
"""

import math

import numpy as np

from flowcast import tensor as T
from flowcast.graph import degree_normalize
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
