"""Gradient oracles for the tape: every op against central differences.

Expected values come from closed forms computed by hand or from an
independent numpy recomputation inside the test, never from the module
under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerbridge.autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    concat,
    cross_entropy,
    embedding,
    layer_norm,
    matmul,
    mul,
    narrow,
    relu,
    reshape,
    softmax,
    take,
    transpose,
)
from layerbridge.errors import ContractError, EmptyLossError, ShapeError
from layerbridge.nn import attention, causal_bias, padding_bias

from conftest import assert_grad_matches, chain_attention, chain_matmul, total


def _t(rng, *shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape).astype(np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# finite-difference checks, one op at a time
# ---------------------------------------------------------------------------


def test_add_broadcast_gradients(rng):
    a = _t(rng, 3, 4)
    b = _t(rng, 4)
    assert_grad_matches(lambda: total(mul(add(a, b), add(a, b))), [a, b])


def test_mul_gradients(rng):
    a = _t(rng, 2, 5)
    b = _t(rng, 2, 5)
    assert_grad_matches(lambda: total(mul(a, b)), [a, b])


def test_matmul_gradients(rng):
    a = _t(rng, 3, 4)
    b = _t(rng, 4, 2)
    assert_grad_matches(lambda: total(matmul(a, b)), [a, b])


def test_matmul_batched_gradients(rng):
    a = _t(rng, 2, 3, 4)
    b = _t(rng, 2, 4, 2)
    assert_grad_matches(lambda: total(matmul(a, b)), [a, b])


@pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)])
def test_matmul_activation_times_weight_gradients(rng, needs):
    # the flattened one-GEMM rule: a 3-d activation times a 2-d weight,
    # each operand tracked alone and both together
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=needs[0])
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=needs[1])
    r = Tensor(rng.normal(size=(2, 3, 5)))
    tracked = [t for t, need in zip((a, w), needs) if need]
    assert_grad_matches(lambda: total(mul(matmul(a, w), r)), tracked)
    for t, need in zip((a, w), needs):
        assert (t.grad is not None) == need


def test_matmul_activation_times_weight_non_contiguous(rng):
    # a transposed view as the activation, and a transposed upstream gradient
    x = _t(rng, 3, 2, 4)
    w = _t(rng, 4, 5)
    r = Tensor(rng.normal(size=(5, 3, 2)))

    def loss():
        a = transpose(x, (1, 0, 2))
        assert not a.data.flags.c_contiguous
        return total(mul(transpose(matmul(a, w), (2, 1, 0)), r))

    assert_grad_matches(loss, [x, w])


def test_matmul_activation_times_weight_4d_leading_shape(rng):
    a = _t(rng, 2, 3, 2, 4)
    w = _t(rng, 4, 5)
    r = Tensor(rng.normal(size=(2, 3, 2, 5)))
    assert_grad_matches(lambda: total(mul(matmul(a, w), r)), [a, w])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_activation_times_weight_forward_is_np_matmul(rng, dtype):
    a = rng.normal(size=(4, 7, 64)).astype(dtype)
    w = rng.normal(size=(64, 32)).astype(dtype)
    with Tape():
        out = matmul(Tensor(a, requires_grad=True), Tensor(w, requires_grad=True))
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, np.matmul(a, w))
    np.testing.assert_array_equal(matmul(Tensor(a), Tensor(w)).data, np.matmul(a, w))


def test_matmul_broadcast_left_operand(rng):
    # [1, k] @ [k, n] with batch dims only on one side
    a = _t(rng, 1, 4)
    b = _t(rng, 4, 6)
    assert_grad_matches(lambda: total(matmul(a, b)), [a, b])


def test_matmul_shape_error_names_both_shapes(rng):
    a = _t(rng, 3, 4)
    b = _t(rng, 5, 2)
    with pytest.raises(ShapeError, match=r"3, 4"):
        matmul(a, b)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: the one biased ``matmul`` entry ``nn.Linear`` records."""
    return matmul(x, w, bias=b)


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_linear_gradients(rng, shape):
    x = _t(rng, *shape)
    w = _t(rng, 4, 3)
    b = _t(rng, 3)
    r = Tensor(rng.normal(size=shape[:-1] + (3,)))
    assert_grad_matches(lambda: total(mul(linear(x, w, b), r)), [x, w, b])


def test_linear_weight_alone(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w = _t(rng, 4, 3)
    b = Tensor(rng.normal(size=3))
    r = Tensor(rng.normal(size=(2, 3, 3)))
    assert_grad_matches(lambda: total(mul(linear(x, w, b), r)), [w])
    assert x.grad is None and b.grad is None


def test_matmul_batched_weight_with_bias_gradients(rng):
    a = _t(rng, 2, 3, 4)
    b = _t(rng, 2, 4, 5)
    bias = _t(rng, 5)
    r = Tensor(rng.normal(size=(2, 3, 5)))
    assert_grad_matches(lambda: total(mul(matmul(a, b, bias=bias), r)), [a, b, bias])


def test_linear_shape_errors_name_both_shapes(rng):
    with pytest.raises(ShapeError, match=r"\(3, 4\) x \(5, 2\)"):
        linear(_t(rng, 3, 4), _t(rng, 5, 2), _t(rng, 2))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\) x \(4,\)"):
        linear(_t(rng, 2, 3, 4), _t(rng, 4), _t(rng, 4))


def _outputs_and_grads(op, inputs, r):
    """The output of ``op(*inputs)`` and every input's gradient under the
    loss sum(op(...) * r)."""
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = op(*inputs)
        loss = total(mul(out, r))
    backward(tape, loss)
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("batch", [1, 32])
def test_linear_matches_matmul_then_add_bitwise(rng, batch):
    x = Tensor(rng.normal(size=(batch, 9, 64)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(64, 48)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=48).astype(np.float32), requires_grad=True)
    r = Tensor(rng.normal(size=(batch, 9, 48)).astype(np.float32))
    got = _outputs_and_grads(linear, [x, w, b], r)
    want = _outputs_and_grads(chain_matmul, [x, w, b], r)
    for g, wt in zip(got, want):
        np.testing.assert_array_equal(g, wt)


def _attention_case(rng, mask, batch=2, d=8, dtype=np.float64):
    """(q, k, v, bias): self-attention under a causal mask, cross-attention
    with padded keys or no mask, or a cached one-position query."""
    s_q, s_k = {"causal": (4, 4), "padding": (4, 5), None: (4, 5), "cached": (1, 6)}[mask]
    if mask == "cached":
        batch = 1
    q, k, v = (
        Tensor(rng.normal(size=(batch, s, d)).astype(dtype), requires_grad=True) for s in (s_q, s_k, s_k)
    )
    bias = None
    if mask == "causal":
        bias = causal_bias(s_q) + padding_bias(np.ones((batch, s_q), dtype=bool))
    elif mask == "padding":
        valid = np.ones((batch, s_k), dtype=bool)
        valid[0, -2:] = False
        bias = padding_bias(valid)
    return q, k, v, bias


@pytest.mark.parametrize("mask", ["causal", "padding", None, "cached"])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_attention_gradients_of_q_k_and_v_separately(rng, mask, which):
    *qkv, bias = _attention_case(rng, mask)
    for i, t in enumerate(qkv):
        t.requires_grad = i == which
    r = Tensor(rng.normal(size=qkv[0].shape))
    assert_grad_matches(lambda: total(mul(attention(*qkv, 2, bias=bias), r)), [qkv[which]])
    assert [t.grad is not None for t in qkv] == [i == which for i in range(3)]


def test_attention_gradients_of_all_three_at_once(rng):
    q, k, v, bias = _attention_case(rng, "padding")
    r = Tensor(rng.normal(size=q.shape))
    assert_grad_matches(lambda: total(mul(attention(q, k, v, 2, bias=bias), r)), [q, k, v])


@pytest.mark.parametrize("mask", ["causal", "padding", "cached"])
@pytest.mark.parametrize("batch", [1, 32])
def test_attention_matches_op_chain_bitwise(rng, mask, batch):
    # benchmark widths: d_dec 128 over 4 heads
    q, k, v, bias = _attention_case(rng, mask, batch=batch, d=128, dtype=np.float32)
    r = Tensor(rng.normal(size=q.shape).astype(np.float32))
    got = _outputs_and_grads(lambda *t: attention(*t, 4, bias=bias), [q, k, v], r)
    want = _outputs_and_grads(lambda *t: chain_attention(*t, 4, bias=bias), [q, k, v], r)
    for g, w in zip(got, want):
        assert g.dtype == np.float32
        np.testing.assert_array_equal(g, w)


def test_attention_records_one_tape_entry(rng):
    q, k, v, bias = _attention_case(rng, "causal")
    with Tape() as tape:
        attention(q, k, v, 2, bias=bias)
    assert len(tape.entries) == 1


def test_attention_rejects_width_not_divisible_by_heads(rng):
    q, k, v, _ = _attention_case(rng, None)
    with pytest.raises(ShapeError, match="not divisible by 3 heads"):
        attention(q, k, v, 3)


def test_relu_gradient_away_from_kink(rng):
    x = Tensor(rng.normal(0.0, 1.0, size=(4, 4)).astype(np.float64) + 0.5, requires_grad=True)
    # shift values away from 0 so FD never straddles the kink
    x.data[np.abs(x.data) < 0.1] = 0.3
    assert_grad_matches(lambda: total(relu(x)), [x])


def test_reshape_transpose_gradient(rng):
    x = _t(rng, 2, 3, 4)
    assert_grad_matches(
        lambda: total(mul(transpose(reshape(x, (6, 4)), (1, 0)), 1.5)), [x]
    )
    w = _t(rng, 3, 4, 2)  # (1, 2, 0) is not its own inverse
    assert_grad_matches(lambda: total(mul(transpose(x, (1, 2, 0)), w)), [x])


def test_narrow_gradient_and_scatter(rng):
    x = _t(rng, 5, 3)
    assert_grad_matches(lambda: total(mul(narrow(x, 0, 1, 2), narrow(x, 0, 1, 2))), [x])
    # gradient outside the window is exactly zero
    with Tape() as tape:
        loss = total(narrow(x, 0, 1, 2))
    backward(tape, loss)
    assert np.all(x.grad[0] == 0) and np.all(x.grad[3:] == 0)
    assert np.all(x.grad[1:3] == 1)


def test_narrow_bounds_checked(rng):
    x = _t(rng, 5, 3)
    with pytest.raises(ShapeError):
        narrow(x, 0, 4, 3)


def test_take_gradient_accumulates_duplicates(rng):
    x = _t(rng, 4, 3)
    idx = np.array([0, 0, 2])
    assert_grad_matches(lambda: total(mul(take(x, idx, 0), take(x, idx, 0))), [x])
    with Tape() as tape:
        loss = total(take(x, idx, 0))
    backward(tape, loss)
    assert np.all(x.grad[0] == 2.0)
    assert np.all(x.grad[1] == 0.0)
    assert np.all(x.grad[2] == 1.0)


def test_concat_gradient(rng):
    a = _t(rng, 2, 3)
    b = _t(rng, 4, 3)
    assert_grad_matches(lambda: total(mul(concat([a, b], 0), concat([a, b], 0))), [a, b])


def test_embedding_gradient(rng):
    table = _t(rng, 7, 4)
    ids = np.array([[1, 1, 5], [0, 6, 5], [1, 3, 1]])
    r = Tensor(rng.normal(size=(3, 3, 4)))
    assert_grad_matches(lambda: total(mul(embedding(table, ids), r)), [table])


def test_embedding_gradient_matches_add_at(rng):
    # the batch-packing layout: ids 0..39 repeat (token rows), ids 40..71
    # occur once each (soft-prompt rows), in float32
    table = Tensor(rng.normal(size=(72, 16)).astype(np.float32), requires_grad=True)
    ids = np.concatenate([rng.integers(0, 40, size=(32, 12)), rng.permutation(32)[:, None] + 40], axis=1)
    r = Tensor(rng.normal(size=(32, 13, 16)).astype(np.float32))
    with Tape() as tape:
        loss = total(mul(embedding(table, ids), r))
    backward(tape, loss)
    want = np.zeros((72, 16), dtype=np.float32)
    np.add.at(want, ids, r.data)
    # a row read once gets its one gradient row bit for bit; repeated ids
    # are summed in another order than np.add.at's, so to float32 rounding
    np.testing.assert_array_equal(table.grad[40:], want[40:])
    np.testing.assert_allclose(table.grad[:40], want[:40], rtol=1e-5, atol=1e-5)


def test_embedding_rejects_negative_ids(rng):
    # numpy would read row -1 as the last row, and the grouped backward would
    # not sum that read with the last row's other reads
    table = _t(rng, 7, 4)
    with pytest.raises(ShapeError, match="-1"):
        embedding(table, np.array([[6, -1, 2]]))


def test_softmax_gradient(rng):
    x = _t(rng, 2, 5)
    w = _t(rng, 2, 5)
    assert_grad_matches(lambda: total(mul(softmax(x), w)), [x, w])


def test_layer_norm_gradient(rng):
    # a random weighting: the plain sum of a normalized row is constant
    x = _t(rng, 2, 6)
    w = _t(rng, 2, 6)
    assert_grad_matches(lambda: total(mul(layer_norm(x), w)), [x], rtol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_matches_numpy_mean_bitwise(rng, dtype):
    x = (rng.normal(0.0, 3.0, size=(4, 7, 128)) + 5.0).astype(dtype)
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mu) * (x - mu), axis=-1, keepdims=True)
    expected = (x - mu) * (1.0 / np.sqrt(var + 1e-5))
    got = layer_norm(Tensor(x)).data
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("shape", [(1, 1, 128), (1, 12, 128), (32, 12, 128)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_layer_norm_matches_identity_affine_bitwise(rng, shape):
    """The affine-free norm gives the bits of the affine formula at gain ones
    and bias zeros, forward and backward, in float32."""
    x = (rng.normal(0.0, 3.0, size=shape) + 5.0).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    gain, bias, d = np.ones(128, np.float32), np.zeros(128, np.float32), 128
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mu
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / d + 1e-5)
    xhat = centered * inv
    dxhat = g * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = layer_norm(xt)
    (gx,) = tape.entries[-1].backward_rule(g)
    np.testing.assert_array_equal(out.data, xhat * gain + bias)
    np.testing.assert_array_equal(gx, inv * (dxhat - m1 - xhat * m2))


def test_cross_entropy_gradient(rng):
    logits = _t(rng, 5, 5)  # one row per masked-in position
    targets = np.array([0, 1, 2, 3, 4, 0])
    mask = np.array([True, True, False, True, True, True])
    assert_grad_matches(lambda: cross_entropy(logits, targets, mask), [logits])


@pytest.mark.parametrize("t_len", [13, 395])
def test_cross_entropy_matches_two_exponential_form_bitwise(rng, t_len):
    """The loss and gradient from the masked-in rows' logits equal, bit for
    bit, the form over all T rows' logits that exponentiates the shifted
    logits again in the backward: taking the kept rows and reusing the
    forward's exponentials and row sums change no value."""
    data = rng.normal(0.0, 2.0, size=(t_len, 512)).astype(np.float32)
    targets = rng.integers(0, 512, size=t_len)
    mask = rng.random(t_len) < 0.8
    logits = Tensor(data[mask], requires_grad=True)
    with Tape() as tape:
        loss = cross_entropy(logits, targets, mask)
    backward(tape, loss)

    shifted = data - np.max(data, axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=-1)) + np.max(data, axis=-1)
    nll = lse - data[np.arange(t_len), targets]
    np.testing.assert_array_equal(loss.data, np.asarray(np.sum(nll * mask) / mask.sum(), dtype=np.float32))
    probs = np.exp(shifted)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    probs[np.arange(t_len), targets] -= 1.0
    probs *= (mask / mask.sum())[:, None]
    np.testing.assert_array_equal(logits.grad, (probs * np.ones_like(loss.data))[mask])


def test_composite_mlp_gradient(rng):
    """One full layer: x @ W1 -> layer_norm -> @ W2 -> softmax CE."""
    x = _t(rng, 4, 6)
    w1 = _t(rng, 6, 8, scale=0.5)
    w2 = _t(rng, 8, 5, scale=0.5)
    targets = np.array([0, 2, 4, 1])
    mask = np.ones(4, dtype=bool)

    def loss():
        return cross_entropy(matmul(layer_norm(matmul(x, w1)), w2), targets, mask)

    assert_grad_matches(loss, [x, w1, w2], rtol=1e-5)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_cross_entropy_closed_form_quarter_three_quarters():
    # softmax([0, ln 3]) = [1/4, 3/4]
    logits = Tensor(np.array([[0.0, math.log(3.0)]]))
    got = cross_entropy(logits, np.array([1]), np.array([True]))
    assert abs(got.item() - (-math.log(0.75))) < 1e-12
    got = cross_entropy(logits, np.array([0]), np.array([True]))
    assert abs(got.item() - (-math.log(0.25))) < 1e-12


def test_cross_entropy_large_logits_stable():
    logits = Tensor(np.array([[1000.0, 1000.0]]))
    got = cross_entropy(logits, np.array([0]), np.array([True]))
    assert abs(got.item() - math.log(2.0)) < 1e-9


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((3, 7)))
    got = cross_entropy(logits, np.array([0, 3, 6]), np.ones(3, dtype=bool))
    assert abs(got.item() - math.log(7.0)) < 1e-6


def test_cross_entropy_matches_independent_log_softmax(rng):
    logits64 = rng.normal(0.0, 3.0, size=(10, 9))
    targets = rng.integers(0, 9, size=10)
    mask = rng.random(10) < 0.7
    mask[0] = True
    shifted = logits64 - logits64.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    want = -log_probs[np.arange(10), targets][mask].mean()
    got = cross_entropy(Tensor(logits64[mask]), targets, mask)
    assert abs(got.item() - want) < 1e-6


def test_cross_entropy_fully_masked_raises():
    logits = Tensor(np.zeros((2, 4)))
    with pytest.raises(EmptyLossError):
        cross_entropy(logits, np.array([0, 1]), np.zeros(2, dtype=bool))


def test_cross_entropy_needs_one_row_per_masked_in_position():
    with pytest.raises(ShapeError, match="a logits row per masked-in position"):
        cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 1]), np.array([True, False]))


def test_cross_entropy_target_out_of_range():
    logits = Tensor(np.zeros((1, 4)))
    with pytest.raises(ContractError):
        cross_entropy(logits, np.array([4]), np.array([True]))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_diamond_fanout_gradient_is_exact(rng):
    x = _t(rng, 5)
    with Tape() as tape:
        u = mul(x, x)
        v = add(u, u)
        loss = total(v)
    backward(tape, loss)
    assert np.allclose(x.grad, 4.0 * x.data, rtol=0, atol=0)


def test_backward_rejects_non_scalar_loss(rng):
    x = _t(rng, 3)
    with Tape() as tape:
        y = mul(x, 2.0)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_ops_on_frozen_inputs_record_nothing(rng):
    a = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=(3, 3)))
    with Tape() as tape:
        out = matmul(add(a, b), b)
    assert tape.entries == []
    assert out.requires_grad is False


def test_grad_is_overwritten_not_accumulated_across_backwards(rng):
    x = _t(rng, 4)
    for _ in range(2):
        with Tape() as tape:
            loss = total(mul(x, x))
        backward(tape, loss)
    assert np.allclose(x.grad, 2.0 * x.data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_softmax_rows_sum_to_one(seed):
    rng_ = np.random.default_rng(seed)
    x = Tensor(rng_.normal(0.0, 5.0, size=(3, 8)))
    y = softmax(x).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(y >= 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shift=st.floats(-50, 50))
def test_softmax_shift_invariance(seed, shift):
    rng_ = np.random.default_rng(seed)
    x = rng_.normal(0.0, 3.0, size=(2, 6))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + shift)).data
    assert np.allclose(a, b, atol=1e-6)


def test_nested_tapes_are_independent(rng):
    x = _t(rng, 3)
    with Tape() as outer:
        y = mul(x, x)
        with Tape() as inner:
            z = mul(x, 3.0)
            inner_loss = total(z)
        backward(inner, inner_loss)
        inner_grad = x.grad.copy()
        loss = total(y)
    backward(outer, loss)
    assert np.allclose(inner_grad, 3.0)
    assert np.allclose(x.grad, 2.0 * x.data)
