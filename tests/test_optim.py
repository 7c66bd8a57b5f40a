"""Adam and warmup schedule behavior."""

import numpy as np
import pytest

from layerbridge.autodiff import Tape, Tensor, add, backward, mul
from layerbridge.errors import ContractError
from layerbridge.optim import AdamState, adam_step, global_grad_norm
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


def test_global_norm_clip_matches_prescaled_gradients():
    """Clipping to norm c must act exactly like feeding gradients scaled by
    c/||g|| into an unclipped optimizer."""
    g = np.array([3.0, 4.0])  # norm 5
    clip = 1.0

    p_clipped = _param([1.0, 1.0])
    p_clipped.grad = g.copy()
    s_clipped = AdamState(base_lr=0.1, clip_norm=clip)
    adam_step(s_clipped, {"p": p_clipped})

    p_manual = _param([1.0, 1.0])
    p_manual.grad = g * (clip / (np.linalg.norm(g) + 1e-12))
    s_manual = AdamState(base_lr=0.1)
    adam_step(s_manual, {"p": p_manual})

    assert np.allclose(p_clipped.data, p_manual.data, atol=1e-12)


def test_clip_is_inactive_below_threshold():
    p = _param([1.0, 1.0])
    p.grad = np.array([0.3, 0.4])  # norm 0.5
    s = AdamState(base_lr=0.1, clip_norm=1.0)
    adam_step(s, {"p": p})

    q = _param([1.0, 1.0])
    q.grad = np.array([0.3, 0.4])
    s2 = AdamState(base_lr=0.1)
    adam_step(s2, {"q": q})
    assert np.all(p.data == q.data)


def test_global_grad_norm_spans_parameters():
    a = _param([3.0])
    b = _param([4.0])
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    assert global_grad_norm({"a": a, "b": b}) == pytest.approx(5.0)


def test_first_step_moves_by_roughly_lr():
    # bias-corrected Adam's first update is lr * sign(g) for eps << |g|
    p = _param([0.0])
    p.grad = np.array([0.123])
    state = AdamState(base_lr=0.01)
    adam_step(state, {"p": p})
    assert p.data[0] == pytest.approx(-0.01, rel=1e-5)
