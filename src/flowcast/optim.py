"""Adam optimizer with bias correction, plus the step-decay LR schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["AdamState", "adam_step", "zero_grads", "lr_at_epoch", "GradientError"]


class GradientError(RuntimeError):
    """A gradient contained NaN/inf; optimization cannot proceed."""


@dataclass
class AdamState:
    """First/second moment estimates per parameter, keyed by name."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        state = cls()
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update; parameters are modified in place.

    Parameters with no gradient (never touched by the loss) are treated as
    having zero gradient so the moment decay still advances uniformly.
    A bad learning rate or a non-finite gradient raises before anything changes.
    """
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and above 0, got {lr}")
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise GradientError(f"non-finite gradient in parameter '{name}'")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def lr_at_epoch(epoch: int, initial: float, decay_epochs, factor: float) -> float:
    """Learning rate for ``epoch`` (0-based): ``initial`` scaled by
    ``factor`` once for every decay epoch already reached."""
    hits = sum(1 for d in decay_epochs if epoch >= d)
    return initial * factor**hits
