"""Adam and warmup schedule behavior."""

import numpy as np
import pytest

from layerbridge.autodiff import Tape, Tensor, add, backward, mul
from layerbridge.errors import ContractError
from layerbridge.optim import AdamState, adam_step
from conftest import total


def _param(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


def test_warmup_schedule_endpoints():
    state = AdamState(base_lr=1e-3, warmup_steps=10)
    assert state.lr_at(0) == pytest.approx(1e-4)
    assert state.lr_at(9) == pytest.approx(1e-3)
    assert state.lr_at(10) == pytest.approx(1e-3)
    assert state.lr_at(1000) == pytest.approx(1e-3)


def test_no_warmup_is_constant():
    state = AdamState(base_lr=2e-3, warmup_steps=0)
    assert state.lr_at(0) == pytest.approx(2e-3)


def test_zero_gradient_leaves_parameters_unchanged():
    p = _param([1.0, -2.0, 3.0])
    p.grad = np.zeros(3)
    state = AdamState(base_lr=0.1)
    assert adam_step(state, {"p": p})
    assert np.all(p.data == np.array([1.0, -2.0, 3.0]))


def test_quadratic_converges():
    target = np.array([0.7, -1.3])
    p = _param([2.0, 2.0])
    state = AdamState(base_lr=2e-2)
    for _ in range(900):
        with Tape() as tape:
            diff = add(p, Tensor(-target))
            loss = total(mul(diff, diff))
        backward(tape, loss)
        adam_step(state, {"p": p})
    assert np.max(np.abs(p.data - target)) < 1e-3


def test_nonfinite_gradient_rejected_before_buffers_touched():
    p = _param([1.0, 2.0])
    state = AdamState(base_lr=0.1)
    p.grad = np.array([0.5, 0.5])
    adam_step(state, {"p": p})
    data_before = p.data.copy()
    m_before = state.m["p"].copy()
    step_before = state.step_count

    p.grad = np.array([np.nan, 0.5])
    assert not adam_step(state, {"p": p})
    assert state.rejected_steps == 1
    assert state.step_count == step_before
    assert np.all(p.data == data_before)
    assert np.all(state.m["p"] == m_before)

    p.grad = np.array([np.inf, 0.5])
    assert not adam_step(state, {"p": p})
    assert state.rejected_steps == 2


def test_missing_gradient_is_a_contract_error():
    p = _param([1.0])
    state = AdamState(base_lr=0.1)
    with pytest.raises(ContractError, match="no gradient"):
        adam_step(state, {"p": p})


def test_gradient_shape_mismatch_is_a_contract_error():
    p = _param([1.0, 2.0])
    p.grad = np.zeros(3)
    state = AdamState(base_lr=0.1)
    with pytest.raises(ContractError, match="shape"):
        adam_step(state, {"p": p})


def test_first_step_moves_by_roughly_lr():
    # bias-corrected Adam's first update is lr * sign(g) for eps << |g|
    p = _param([0.0])
    p.grad = np.array([0.123])
    state = AdamState(base_lr=0.01)
    adam_step(state, {"p": p})
    assert p.data[0] == pytest.approx(-0.01, rel=1e-5)
