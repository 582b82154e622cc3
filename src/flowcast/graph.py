"""Road-network graphs and hop-structured diffusion convolution.

The sensor network is a weighted directed graph. Spatial aggregation uses
degree-normalized transition matrices in both flow directions; the
multi-hop variant splits the neighborhood into exact-hop shells (hop 1,
hop 2, ...) and aggregates each shell with its own head before a shared
output projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "RoadGraph",
    "load_adjacency",
    "hop_shells",
    "row_normalize",
    "hop_transitions",
    "multi_hop_conv",
    "GraphFormatError",
]


class GraphFormatError(ValueError):
    """Adjacency file could not be parsed."""


@dataclass(eq=False)
class RoadGraph:
    """Weighted directed sensor graph, held as one read-only (N, N) float64
    copy of the matrix it is given: ``adjacency[src, dst]`` is the weight of
    the edge src -> dst, 0 for no edge. It must be square and non-empty,
    every weight finite and >= 0. Graphs compare by identity."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = self.adjacency = np.array(self.adjacency, dtype=np.float64)
        adj.flags.writeable = False
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.size == 0:
            raise ValueError(f"adjacency must be a non-empty square matrix, got shape {adj.shape}")
        bad = np.argwhere(~(np.isfinite(adj) & (adj >= 0)))
        if len(bad):
            src, dst = bad[0]
            raise ValueError(f"edge ({src},{dst}) weight must be finite and >= 0, got {adj[src, dst]}")

    @classmethod
    def from_adjacency(cls, adj) -> "RoadGraph":  # as tests/test_golden.py spells it
        return cls(adj)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def undirected_weights(self) -> np.ndarray:
        """Symmetric weight matrix (sum of both directions), for random walks."""
        return self.adjacency + self.adjacency.T


def load_adjacency(path) -> RoadGraph:
    """Parse an edge-list file, one ``src,dst,weight`` line per edge, into
    the graph's adjacency.

    An optional ``N=<int>`` line declares the node count; otherwise it is
    inferred as max index + 1. A single header line of column names is
    tolerated. An edge that repeats takes its last line's weight, so a
    last weight of 0 removes it. A malformed line, a node index outside
    0..N-1, or a weight that is negative or not finite raises
    :class:`GraphFormatError` naming ``path:line``; text that is not UTF-8
    one naming ``path``.
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
        adj = np.zeros((n, n))
    except (ValueError, MemoryError):  # numpy cannot hold the dense N x N adjacency
        raise GraphFormatError(f"{path}: N={n} is too large for a dense adjacency") from None
    for src, dst, w in edges:
        adj[src, dst] = w
    return RoadGraph(adj)


# ---------------------------------------------------------------------------
# Hop structure

def hop_shells(g: RoadGraph, k: int) -> np.ndarray:
    """Exact-hop shells 1..k as a bool (k, N, N) mask.

    Layer i-1 marks the pairs (s, t) whose shortest directed path from s
    to t has exactly i edges. An edge is an off-diagonal non-zero of the
    adjacency; its weight does not participate (a hop is a hop).

    A breadth-first search from every node at once, stopped after k
    levels: level i is each node with an in-neighbour in level i-1 that
    no earlier level reached. It runs on the transposed mask, target by
    start, so each step gathers whole rows: one per in-neighbour slot.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = g.n_nodes
    linked = g.adjacency.T != 0  # linked[t, s]: an edge s -> t
    np.fill_diagonal(linked, False)
    dst, src = np.nonzero(linked)
    # row t lists t's in-neighbours, padded with n: the frontier's row that is always False
    indeg = linked.sum(axis=1)
    sources = np.full((n, indeg.max(initial=0)), n)
    sources[dst, np.arange(len(dst)) - (np.cumsum(indeg) - indeg)[dst]] = src
    shells = np.zeros((k, n, n), dtype=bool)  # shells[i, t, s] until the final transpose
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n + 1, n, dtype=bool)
    for shell in shells:
        for column in sources.T:
            shell |= frontier[column]
        shell &= ~reached
        if not shell.any():
            break
        reached |= shell
        frontier[:n] = shell
    return shells.transpose(0, 2, 1).copy()


# ---------------------------------------------------------------------------
# Degree normalization and diffusion

def row_normalize(h: np.ndarray) -> np.ndarray:
    """Row-stochastic transition matrix D^-1 h from a nonnegative matrix,
    each row divided by its sum (the out-degree; of ``h.T``, the in-degree).
    Zero rows stay all-zero (the node aggregates nothing that way).
    """
    if np.any(h < 0):
        raise ValueError("row_normalize expects nonnegative entries")
    deg = h.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg, dtype=np.float64), where=deg > 0)
    return inv[:, None] * h


def hop_transitions(hops: np.ndarray) -> np.ndarray:
    """Bidirectional operator D_o^-1 H_i + D_i^-1 H_i^T per hop shell, (k, N, N)."""
    out = np.empty(hops.shape)
    for h, o in zip(hops, out):
        o[...] = row_normalize(h)
        o += row_normalize(h.T)
    return out


def multi_hop_conv(x: Tensor, trans: np.ndarray, w_x: list[Tensor], w_d: Tensor) -> Tensor:
    """Multi-head diffusion over exact-hop shells, on (..., N, F) features.

    Head i aggregates ``trans[i] @ (X W_x[i])`` over the node axis, with
    ``trans`` from :func:`hop_transitions` broadcast over any leading axes
    (samples, time steps); heads are concatenated and projected by
    ``w_d``. Feature width must split evenly across the k heads (validated
    at model build time).

    One graph node with a hand-written backward. The forward projects
    ``x`` once against ``[W_x[0] | ... | W_x[k-1]]`` and writes head i
    into column block i of one buffer, the only array the node keeps; its
    output is the same to the bit as composing the products. The backward
    takes one product each for the gradients of ``w_d``, the stacked head
    weights and ``x``, plus one transposed shell product per head.
    """
    if len(w_x) != trans.shape[0]:
        raise ShapeError(f"expected {trans.shape[0]} head weights, got {len(w_x)}")
    inputs = (x, *w_x, w_d)
    cuts = np.cumsum([0] + [w.shape[-1] for w in w_x])
    blocks = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    w = np.concatenate([w.data for w in w_x], axis=1)
    try:
        if x.data.ndim < 2:
            raise ValueError
        y = x.data @ w
        cat = np.empty(y.shape)
        for i, at in enumerate(blocks):
            np.matmul(trans[i], y[..., at], out=cat[..., at])
        del y
        out = cat @ w_d.data
    except ValueError:
        raise ShapeError(
            f"multi_hop_conv: features {x.shape}, shells {trans.shape}, head weights "
            f"{w.shape} and output map {w_d.shape} do not fit"
        ) from None

    def vjp(g):
        # as matmul's gradients, through the output map, then each shell
        g_cat, g_d = T._linear_grads(cat, [w_d.data], g)
        g_y = np.empty(g_cat.shape)
        for i, at in enumerate(blocks):
            np.matmul(trans[i].T, g_cat[..., at], out=g_y[..., at])
        del g_cat
        g_x, g_w = T._linear_grads(x.data, [w.data for w in w_x], g_y)
        return (g_x, *g_w, *g_d)

    return T._node(out, inputs, vjp)
