"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the forecaster is a :class:`Tensor`: a numpy
array plus an optional gradient and a backpointer into the computation
graph. Operations build the graph eagerly; :func:`backward` walks it in
reverse topological order and accumulates gradients into ``.grad`` of the
leaves (parameters and other tensors with no vjp) only. A pass consumes
the graph it walks: each node drops its vjp and parents as its vjp runs,
so the arrays they held are freed while the pass goes on, and a graph is
built again to be backpropagated again.

Every op, plain or fused, records one node through :func:`_node` with a
single vector-Jacobian product that maps the node's output gradient to one
gradient per input, tracked or not; :func:`backward` reads only the tracked
ones. A fixed formula of several inputs, such as the GRU cell, is one node
with a hand-written vjp, so the graph keeps only what that vjp reads
instead of every intermediate array. Each such vjp takes the gradients of
its linear maps ``x @ [w_0 | ... | w_k]`` from :func:`_linear_grads`.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "param",
    "no_grad",
    "backward",
    "l1_loss",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphConsumedError(RuntimeError):
    """Raised when :func:`backward` reaches a node an earlier pass consumed."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array node in the computation graph.

    ``data`` is never mutated by operations; on leaves (``vjp`` is None),
    ``grad`` is populated (and accumulated into) by :func:`backward`.
    ``parents`` holds ``(input tensor, i)`` pairs for the op's tracked
    inputs, and ``vjp`` maps the output gradient to a sequence whose entry
    ``i`` is input i's gradient contribution, an array of its shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "vjp")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def param(data) -> Tensor:
    """Learnable tensor: participates in gradient computation."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _tracks(inputs) -> bool:
    """Whether an op on ``inputs`` builds a graph node."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _node(data: np.ndarray, inputs, vjp) -> Tensor:
    """Wrap an op result as one graph node over ``inputs``.

    ``vjp(g)`` maps the output gradient to one gradient per input, in the
    order of ``inputs``; :func:`backward` calls it once per pass and reads
    only the entries of tracked inputs. Under :func:`no_grad`, or with no
    tracked input, the node keeps nothing.
    """
    if not _tracks(inputs):
        return Tensor(data)
    return Tensor(
        data, requires_grad=True,
        parents=tuple((t, i) for i, t in enumerate(inputs) if t.requires_grad), vjp=vjp,
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a matrix, its leading axes merged into one row axis: a
    weight gradient ``_rows(x).T @ _rows(g)`` sums over every batch axis
    inside one product."""
    return a.reshape(-1, a.shape[-1])


def _cols(a: np.ndarray, widths) -> list[np.ndarray]:
    """Views of ``a``'s consecutive column blocks of ``widths``."""
    return [a[..., end - w : end] for end, w in zip(accumulate(widths), widths)]


def _linear_grads(x: np.ndarray, ws, g: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Gradients of ``x @ [w_0 | ... | w_k]`` from its output gradient ``g``:
    ``g @ [w_0 | ... | w_k]^T`` at ``x``, and ``_rows(x)^T @ _rows(g)`` cut
    into each weight's column block, one product each."""
    w = ws[0] if len(ws) == 1 else np.concatenate(ws, axis=1)
    return g @ w.T, _cols(_rows(x).T @ _rows(g), [w_i.shape[-1] for w_i in ws])


# ---------------------------------------------------------------------------
# Elementwise

# Not in __all__: the model passes its scale to l1_loss; tests/test_golden.py
# builds its reference loss with this node.
def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _node(a.data * s, (a,), lambda g: (g * s,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # sigmoid(x) = (1 + tanh(x/2)) / 2: one pass, no masks, and tanh never
    # overflows, unlike exp(-x) for large negative x.
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


# A copy of a.data[idx]; its gradient is assigned at idx, so take basic indices only.
def _slice(a: Tensor, idx) -> Tensor:
    def vjp(g):
        grad = np.zeros(a.shape)
        grad[idx] = g
        return (grad,)

    return _node(np.array(a.data[idx]), (a,), vjp)


# ---------------------------------------------------------------------------
# Autodiff driver

def _consumed(g):
    raise GraphConsumedError(
        "backward: this graph was already backpropagated, which frees it; "
        "build it again to backpropagate again"
    )


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every leaf reachable from ``loss``.

    Leaves are tensors with no vjp (parameters, in the model); they are
    the only tensors whose gradient is read, so intermediates never hold a
    ``.grad`` array. ``loss`` must be a scalar. Gradients accumulate across
    calls on separately built graphs; callers that want fresh gradients
    must clear them first (the training loop zeroes parameter grads every
    step).

    Each node's ``vjp`` runs once, and its entry for each parent is summed
    into that parent's one accumulator, which the pass owns (``+=``). A
    vjp's array is adopted as-is while it is a node's only contribution
    and copied once before the first in-place add.

    The pass consumes the graph: a node drops its vjp and parents as its vjp
    is called, and the pass drops the node, so its output goes during its
    own vjp unless that vjp or the caller still reads it; once the vjp has
    run, the arrays it closed over go too, and every output no pending vjp
    still reads. A consumed node's vjp raises :class:`GraphConsumedError`,
    so a second pass over the same graph fails instead of treating its
    nodes as leaves.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    topo = _topological_order(loss)

    # Gradients flow through pass-local scratch storage and are committed
    # into a leaf's .grad once, so a pass adds ∂loss/∂leaf exactly once.
    # Only buffers in ``owned`` (ids whose buffer this pass allocated) are
    # added into in place: a vjp may return its g, or one array for two
    # inputs. Popping drops the list's reference to a node, and no local
    # outlives its step, so a consumed node is freed once nothing else holds
    # it; ids are looked up only for nodes still in ``topo``, so a freed
    # node's id, if reused, never is.
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()
    while topo:
        node = topo.pop()
        g = flow.pop(id(node))
        if node.vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        vjp, parents = node.vjp, node.parents
        node.vjp, node.parents = _consumed, ()
        del node
        _accumulate(flow, owned, parents, vjp(g))
        del vjp, parents


def _topological_order(loss: Tensor) -> list[Tensor]:
    """Every node reachable from ``loss``, each after all its parents.

    Iterative: training graphs are far deeper than the interpreter's
    recursion limit.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


def _accumulate(flow: dict, owned: set, parents, grads) -> None:
    """Sum each parent's entry of ``grads`` into its accumulator in ``flow``."""
    for parent, i in parents:
        contrib, pid = grads[i], id(parent)
        acc = flow.get(pid)
        if acc is None:
            flow[pid] = contrib
        elif pid in owned:
            acc += contrib
        else:
            flow[pid] = acc + contrib
            owned.add(pid)


# ---------------------------------------------------------------------------
# Objective

def l1_loss(pred: Tensor, target: Tensor, scale: float = 1.0) -> Tensor:
    """Sum of absolute errors over all entries (a sum, not a mean) times
    ``scale``, as one node. An entry where pred equals target gets
    subgradient 0 (np.sign's convention)."""
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss: shapes differ, {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    scale = float(scale)

    def vjp(g):
        # (g * scale) first, so the gradient has the bits of scale(l1_loss(...))
        grad = (g * scale) * np.sign(diff)
        return grad, -grad

    return _node(np.abs(diff).sum() * scale, (pred, target), vjp)
