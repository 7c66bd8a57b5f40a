"""Adam with linear warmup and a non-finite rejection guard.

One ``AdamState`` per training stage. The schedule ramps the learning rate
linearly from lr/warmup_steps up to the base rate over the first
``warmup_steps`` updates, then holds it constant. A step whose gradients
contain NaN or inf is rejected wholesale: parameters, moments, and the step
counter are left untouched and the caller is told.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


@dataclass
class AdamState:
    """First/second moment buffers plus step count for one parameter set."""

    base_lr: float
    warmup_steps: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    rejected_steps: int = 0

    def lr_at(self, step: int) -> float:
        """Learning rate applied by update number ``step`` (0-based)."""
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        return self.base_lr


def adam_step(state: AdamState, params: dict[str, Tensor]) -> bool:
    """Apply one Adam update in place. Returns False on a rejected step.

    Every parameter must carry a gradient of matching shape. Rejection
    happens before any buffer is touched, so a poisoned batch cannot smear
    NaNs into the moments.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"adam_step: parameter {name!r} has no gradient")
        if p.grad.shape != p.data.shape:
            raise ContractError(
                f"adam_step: gradient shape {p.grad.shape} != parameter shape {p.data.shape} for {name!r}"
            )
        if not np.all(np.isfinite(p.grad)):
            state.rejected_steps += 1
            return False

    lr = state.lr_at(state.step_count)
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype, copy=False)
    return True
