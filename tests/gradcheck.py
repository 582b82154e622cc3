"""Finite-difference gradient oracle shared by the test suite.

Central differences with h = 1e-5 in float64; independent of the autodiff
engine it is used to check. :func:`assert_vjp_repeats` checks that a
graph node's vjp can be called again.
"""

import numpy as np


def numeric_grad(forward, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """d forward() / d x by central differences, perturbing x in place."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = forward()
        flat_x[i] = orig - h
        f_minus = forward()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def grad_close(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rtol: float = 1e-4,
    atol: float = 1e-7,
) -> bool:
    """Entrywise |a - n| <= atol + rtol * max(|a|, |n|)."""
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    return bool(np.all(np.abs(analytic - numeric) <= bound))


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-7):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def assert_vjp_repeats(node, g: np.ndarray) -> None:
    """Call ``node.vjp`` twice on the same ``g``: both calls return the same
    bytes, entry by entry (``None`` for an input the vjp skips), and leave
    ``g`` as it was, so the vjp mutates neither its saved arrays nor ``g``."""
    g_before = g.copy()
    first = [None if a is None else a.copy() for a in node.vjp(g)]
    second = node.vjp(g)
    assert g.tobytes() == g_before.tobytes()
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
