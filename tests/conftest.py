"""Shared test helpers: finite-difference oracles and tiny model builders."""

from __future__ import annotations

import errno
from pathlib import Path

import numpy as np
import pytest

from layerbridge.autodiff import Tape, Tensor, backward


def central_difference(f, param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Gradient of the scalar ``f()`` w.r.t. ``param`` by central differences.

    ``f`` must re-run the forward pass from scratch each call; ``param.data``
    is perturbed in place and restored. Use float64 parameters for accuracy.
    """
    grad = np.zeros(param.data.shape, dtype=np.float64)
    flat_param = param.data.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_param.size):
        orig = flat_param[i]
        flat_param[i] = orig + h
        hi = f()
        flat_param[i] = orig - h
        lo = f()
        flat_param[i] = orig
        flat_grad[i] = (hi - lo) / (2.0 * h)
    return grad


def analytic_gradient(build_loss, params: list[Tensor]) -> list[np.ndarray]:
    """Backprop gradients for every param of the scalar ``build_loss()``."""
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


def assert_grad_matches(build_loss, params: list[Tensor], h: float = 1e-5, rtol: float = 1e-6):
    """Check every parameter's analytic gradient against central differences."""
    analytic = analytic_gradient(build_loss, params)

    def scalar():
        return float(build_loss().item())

    for p, got in zip(params, analytic):
        want = central_difference(scalar, p, h=h)
        scale = np.maximum(np.abs(want), 1e-4)
        err = np.max(np.abs(got - want) / scale)
        assert err < rtol, f"gradient mismatch: max rel err {err:.3e} for shape {p.data.shape}"


def fail_file_writes(monkeypatch) -> None:
    """Make every ``Path.write_bytes`` put half its payload down, then fail
    the way a full disk does."""
    real = Path.write_bytes

    def write_half(self, data):
        real(self, bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
