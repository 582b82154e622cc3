"""Road-network graphs and hop-structured diffusion convolution.

The sensor network is a weighted directed graph. Spatial aggregation uses
degree-normalized transition matrices in both flow directions; the
multi-hop variant splits the neighborhood into exact-hop shells (hop 1,
hop 2, ...) and aggregates each shell with its own head before a shared
output projection.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "RoadGraph",
    "UNREACHABLE",
    "load_adjacency",
    "shortest_path_hops",
    "hop_adjacency",
    "degree_normalize",
    "hop_transitions",
    "multi_hop_conv",
    "GraphFormatError",
]

# Sentinel for node pairs with no directed path; never a valid hop count.
UNREACHABLE = -1


class GraphFormatError(ValueError):
    """Adjacency file could not be parsed."""


@dataclass
class RoadGraph:
    """Weighted directed sensor graph."""

    n_nodes: int
    edges: list[tuple[int, int, float]]
    adjacency: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        if self.adjacency is None:
            adj = np.zeros((self.n_nodes, self.n_nodes))
            for src, dst, w in self.edges:
                adj[src, dst] = w
            self.adjacency = adj
        for src, dst, w in self.edges:
            if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                raise ValueError(f"edge ({src},{dst}) out of range for N={self.n_nodes}")
            if w < 0:
                raise ValueError(f"edge ({src},{dst}) has negative weight {w}")

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "RoadGraph":
        adj = np.asarray(adj, dtype=np.float64)
        src, dst = np.nonzero(adj)
        edges = [(int(i), int(j), float(adj[i, j])) for i, j in zip(src, dst)]
        return cls(n_nodes=adj.shape[0], edges=edges, adjacency=adj)

    def undirected_weights(self) -> np.ndarray:
        """Symmetric weight matrix (sum of both directions), for random walks."""
        return self.adjacency + self.adjacency.T


def load_adjacency(path) -> RoadGraph:
    """Parse an edge-list file: one ``src,dst,weight`` line per edge.

    An optional ``N=<int>`` line declares the node count; otherwise it is
    inferred as max index + 1. A single header line of column names is
    tolerated. A malformed line, a node index outside 0..N-1, or a weight
    that is negative or not finite raises :class:`GraphFormatError` naming
    ``path:line``; text that is not UTF-8 one naming ``path``.
    """
    path = Path(path)
    declared_n = None
    edges: list[tuple[int, int, float]] = []
    linenos: list[int] = []  # of each edge
    saw_content = False
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.upper().startswith("N="):
                    try:
                        declared_n = int(line[2:])
                        if declared_n < 1:
                            raise ValueError
                    except ValueError:
                        raise GraphFormatError(
                            f"{path}:{lineno}: node count must be a positive integer, got {line!r}"
                        ) from None
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) != 3:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected 'src,dst,weight', got {line!r}"
                    )
                try:
                    src, dst, w = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError:
                    if not saw_content:  # a single leading header row is fine
                        saw_content = True
                        continue
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-numeric edge {line!r}"
                    ) from None
                saw_content = True
                if not (math.isfinite(w) and w >= 0):
                    raise GraphFormatError(
                        f"{path}:{lineno}: edge weight must be finite and >= 0, got {parts[2]!r}"
                    )
                edges.append((src, dst, w))
                linenos.append(lineno)
    except UnicodeDecodeError:
        raise GraphFormatError(f"{path}: not UTF-8 text") from None
    if not edges and declared_n is None:
        raise GraphFormatError(f"{path}: no edges and no N= declaration")
    n = declared_n if declared_n is not None else (
        max(max(s, d) for s, d, _ in edges) + 1
    )
    for (src, dst, _), lineno in zip(edges, linenos):
        if not (0 <= src < n and 0 <= dst < n):
            raise GraphFormatError(
                f"{path}:{lineno}: edge ({src},{dst}) out of range for N={n}"
            )
    try:
        return RoadGraph(n_nodes=n, edges=edges)
    except (ValueError, MemoryError):  # numpy cannot hold the dense N x N adjacency
        raise GraphFormatError(f"{path}: N={n} is too large for a dense adjacency") from None


# ---------------------------------------------------------------------------
# Hop structure

def shortest_path_hops(g: RoadGraph) -> np.ndarray:
    """Directed hop-count matrix S: S[i,j] = min #edges from i to j.

    S[i,i] = 0; pairs with no path hold :data:`UNREACHABLE`. Edge weights
    do not participate (a hop is a hop).
    """
    n = g.n_nodes
    out_neighbors: list[list[int]] = [[] for _ in range(n)]
    for src, dst, w in g.edges:
        if w != 0 and src != dst:
            out_neighbors[src].append(dst)
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


def hop_adjacency(s: np.ndarray, k: int) -> np.ndarray:
    """Split the hop-distance matrix into exact-hop shells 1..k.

    Returns a (k, N, N) stack in {0, 1}; layer i-1 marks pairs exactly i
    hops apart.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return np.stack([(s == i).astype(np.float64) for i in range(1, k + 1)])


# ---------------------------------------------------------------------------
# Degree normalization and diffusion

def degree_normalize(h: np.ndarray, direction: str) -> np.ndarray:
    """Row-stochastic transition matrix from a nonnegative matrix.

    ``out``: D_o^-1 h, rows normalized by out-degree. ``in``: D_i^-1 h^T,
    the reverse direction. Zero-degree rows stay all-zero (the node
    aggregates nothing that way).
    """
    if direction not in ("out", "in"):
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
    if np.any(h < 0):
        raise ValueError("degree_normalize expects nonnegative entries")
    mat = h if direction == "out" else h.T
    deg = mat.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg, dtype=np.float64), where=deg > 0)
    return inv[:, None] * mat


def hop_transitions(hops: np.ndarray) -> np.ndarray:
    """Bidirectional operator D_o^-1 H_i + D_i^-1 H_i^T per hop shell, (k, N, N)."""
    return np.stack([degree_normalize(h, "out") + degree_normalize(h, "in") for h in hops])


def multi_hop_conv(x: Tensor, trans: np.ndarray, w_x: list[Tensor], w_d: Tensor) -> Tensor:
    """Multi-head diffusion over exact-hop shells, on (..., N, F) features.

    Head i aggregates ``trans[i] @ (X W_x[i])`` over the node axis, with
    ``trans`` from :func:`hop_transitions` broadcast over any leading axes
    (samples, time steps); heads are concatenated and projected by
    ``w_d``. Feature width must split evenly across the k heads (validated
    at model build time).
    """
    if len(w_x) != trans.shape[0]:
        raise ShapeError(f"expected {trans.shape[0]} head weights, got {len(w_x)}")
    heads = [T.matmul(Tensor(trans[i]), T.matmul(x, w)) for i, w in enumerate(w_x)]
    return T.matmul(T.concat(heads, axis=-1), w_d)
