"""Adapter and layer-wise aligner: mixing oracles, subsets, gradient flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerbridge.autodiff import Tape, Tensor, backward, concat, matmul, mul, relu, reshape, softmax, take
from layerbridge.bridge import (
    Adapter,
    LayerSubset,
    LayerWiseAligner,
    adapt,
    aligner_weight_matrix,
    subset_from_spec,
)
from layerbridge.encoder import LayerStack
from layerbridge.errors import ConfigError
from conftest import assert_grad_matches, total


def _stack(rng, n_layers=3, batch=2, src_len=4, d_enc=8):
    states = []
    for _ in range(n_layers + 1):
        h = rng.normal(0.0, 1.0, size=(batch, src_len, d_enc)).astype(np.float32)
        h.flags.writeable = False
        states.append(h)
    return LayerStack(states=states, mask=np.ones((batch, src_len), dtype=bool))


def _aligner(rng, n_enc=3, n_dec=2, d_enc=8, d_hidden=6, d_dec=10):
    return LayerWiseAligner(rng, n_enc, n_dec, d_enc, d_hidden, d_dec)


# ---------------------------------------------------------------------------
# adapter
# ---------------------------------------------------------------------------


def test_fresh_adapter_maps_zero_state_to_zero(rng):
    adapter = Adapter(rng, d_enc=8, d_dec=10)
    states = [np.zeros((1, 3, 8), dtype=np.float32) for _ in range(3)]
    for h in states:
        h.flags.writeable = False
    stack = LayerStack(states=states, mask=np.ones((1, 3), dtype=bool))
    out = adapt(adapter, stack)
    assert out.shape == (1, 3, 10)
    assert np.all(out.data == 0.0)


def test_adapter_is_position_wise(rng):
    adapter = Adapter(rng, d_enc=8, d_dec=10)
    stack = _stack(rng)
    out_full = adapt(adapter, stack).data
    # feeding one position alone gives the same row
    one = [h[:, 1:2].copy() for h in stack.states]
    for h in one:
        h.flags.writeable = False
    out_one = adapt(adapter, LayerStack(states=one, mask=np.ones((2, 1), dtype=bool))).data
    assert np.allclose(out_full[:, 1:2], out_one, atol=1e-6)


def test_adapter_width_mismatch(rng):
    adapter = Adapter(rng, d_enc=16, d_dec=10)
    with pytest.raises(ConfigError, match="width"):
        adapt(adapter, _stack(rng, d_enc=8))


def test_adapter_parameter_count_at_reference_dims(rng):
    """Single linear 2048 -> 4096: weights plus bias."""
    adapter = Adapter(rng, d_enc=2048, d_dec=4096)
    count = sum(p.data.size for p in adapter.named_params().values())
    assert count == 2048 * 4096 + 4096


# ---------------------------------------------------------------------------
# aligner mixing against a loop oracle
# ---------------------------------------------------------------------------


def _naive_fuse(aligner, stack, layer_index, indices, uniform=False):
    """Recompute one decoder layer's memory with explicit float64 loops."""
    logits = aligner.mixing_logits.data[layer_index - 1, list(indices)].astype(np.float64)
    if uniform:
        w = np.full(len(indices), 1.0 / len(indices))
    else:
        e = np.exp(logits - logits.max())
        w = e / e.sum()
    mixed = np.zeros(stack.states[0].shape, dtype=np.float64)
    for weight, j in zip(w, indices):
        mixed += weight * stack.states[j].astype(np.float64)
    hidden = np.maximum(
        mixed @ aligner.fuse_in.weight.data.astype(np.float64)
        + aligner.fuse_in.bias.data.astype(np.float64),
        0.0,
    )
    return hidden @ aligner.k_head.weight.data.astype(np.float64) + aligner.k_head.bias.data.astype(np.float64)


def _per_layer_fuse(aligner, stack, subset=None):
    """The memories as a loop over decoder layers, one mixing row and one
    fusion-network run per layer: the float32 arithmetic ``fuse_all`` keeps."""
    indices = tuple(range(aligner.n_enc_layers)) if subset is None else subset.indices
    batch, src_len, d_enc = stack.states[0].shape
    support = Tensor(np.stack([stack.states[j].reshape(-1) for j in indices], axis=0))
    memories = []
    for layer in range(aligner.n_dec_layers):
        if subset is not None and subset.frozen_uniform:
            weights = Tensor(np.full((1, len(indices)), 1.0 / len(indices), dtype=np.float32))
        else:
            row = take(aligner.mixing_logits, [layer], axis=0)
            weights = softmax(take(row, list(indices), axis=1), axis=-1)
        mixed = reshape(matmul(weights, support), (batch, src_len, d_enc))
        memories.append(aligner.k_head(relu(aligner.fuse_in(mixed))))
    return memories


def _random_logits(rng, aligner):
    aligner.mixing_logits.data[...] = rng.normal(0, 1, size=aligner.mixing_logits.shape)
    return aligner


def test_fuse_matches_loop_oracle(rng):
    aligner = _random_logits(rng, _aligner(rng, n_dec=3))
    stack = _stack(rng)
    memories = aligner.fuse_all(stack).memories
    assert len(memories) == 3
    for layer, memory in enumerate(memories, start=1):
        assert memory.shape == (2, 4, 10)
        assert np.allclose(memory.data, _naive_fuse(aligner, stack, layer, range(3)), atol=1e-5)


def test_fuse_subset_matches_loop_oracle(rng):
    aligner = _random_logits(rng, _aligner(rng, n_dec=3))
    stack = _stack(rng)
    for spec in ("0,2,3", "average", "last_hidden", "first:2"):
        subset = subset_from_spec(spec, 3)
        memories = aligner.fuse_all(stack, subset).memories
        for layer, memory in enumerate(memories, start=1):
            want = _naive_fuse(aligner, stack, layer, subset.indices, uniform=subset.frozen_uniform)
            assert np.allclose(memory.data, want, atol=1e-5), (spec, layer)


@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("spec", [None, "average", "last_hidden", "first:4"])
def test_fuse_all_equals_per_layer_loop_bitwise(rng, batch, spec):
    """Six encoder layers, four decoder layers, width 64: a shape at which
    one [m, k] GEMM rounds differently from the per-layer rows."""
    aligner = _random_logits(rng, _aligner(rng, n_enc=6, n_dec=4, d_enc=64, d_hidden=96, d_dec=128))
    stack = _stack(rng, n_layers=6, batch=batch, src_len=13, d_enc=64)
    subset = None if spec is None else subset_from_spec(spec, 6)
    got = aligner.fuse_all(stack, subset).memories
    want = _per_layer_fuse(aligner, stack, subset)
    assert len(got) == len(want) == 4
    for memory, expected in zip(got, want):
        assert np.array_equal(memory.data, expected.data)


def test_dominant_logit_selects_single_layer(rng):
    """A +40 logit margin makes the mixture numerically equal one state."""
    aligner = _aligner(rng)
    aligner.mixing_logits.data[0, 1] = 40.0
    stack = _stack(rng)
    k = aligner.fuse_all(stack).memories[0]
    only = [h.copy() for h in stack.states]
    for j in range(len(only)):
        if j != 1:
            only[j][...] = stack.states[1]
    for h in only:
        h.flags.writeable = False
    pinned = LayerStack(states=only, mask=stack.mask)
    k_want = aligner.fuse_all(pinned).memories[0]
    assert np.allclose(k.data, k_want.data, atol=1e-5)


def test_weight_matrix_uniform_at_init(rng):
    aligner = _aligner(rng, n_enc=5, n_dec=3)
    mat = aligner_weight_matrix(aligner)
    assert mat.shape == (3, 5)
    assert np.allclose(mat, 0.2, atol=0)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)


def test_weight_matrix_rows_sum_to_one_after_perturbation(rng):
    aligner = _aligner(rng, n_enc=5, n_dec=3)
    aligner.mixing_logits.data[...] = rng.normal(0, 4, size=aligner.mixing_logits.shape)
    mat = aligner_weight_matrix(aligner)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
    # the final state's column is not part of the exported matrix
    assert mat.shape == (3, 5)


def _shifted(stack, state, delta=5.0):
    states = [h.copy() for h in stack.states]
    states[state] = states[state] + delta
    for h in states:
        h.flags.writeable = False
    return LayerStack(states=states, mask=stack.mask)


def test_final_state_excluded_from_default_range(rng):
    aligner = _random_logits(rng, _aligner(rng))
    stack = _stack(rng)
    before = aligner.fuse_all(stack).memories
    after = aligner.fuse_all(_shifted(stack, -1)).memories
    for a, b in zip(before, after):
        assert np.array_equal(a.data, b.data)


def test_support_state_changes_do_reach_output(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    before = aligner.fuse_all(stack).memories
    after = aligner.fuse_all(_shifted(stack, 0)).memories
    for a, b in zip(before, after):
        assert not np.allclose(a.data, b.data)


def test_batch_permutation_equivariance(rng):
    aligner = _random_logits(rng, _aligner(rng, d_enc=8))
    stack = _stack(rng, batch=3)
    memories = aligner.fuse_all(stack).memories
    perm = [2, 0, 1]
    permuted = [h[perm].copy() for h in stack.states]
    for h in permuted:
        h.flags.writeable = False
    permuted_memories = aligner.fuse_all(LayerStack(states=permuted, mask=stack.mask[perm])).memories
    for k, k_perm in zip(memories, permuted_memories):
        assert np.allclose(k.data[perm], k_perm.data, atol=1e-6)


def test_gradients_reach_mixing_logits_and_fusion_net(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    with Tape() as tape:
        memory = aligner.fuse_all(stack).memories[1]
        loss = total(mul(memory, memory))
    backward(tape, loss)
    assert aligner.mixing_logits.grad is not None
    # only the addressed row receives gradient, and only support columns
    assert np.any(aligner.mixing_logits.grad[1, :3] != 0)
    assert np.all(aligner.mixing_logits.grad[0] == 0)
    assert np.all(aligner.mixing_logits.grad[:, 3] == 0)
    assert aligner.fuse_in.weight.grad is not None
    assert aligner.k_head.weight.grad is not None


def test_fuse_all_gradients_match_finite_differences(rng):
    aligner = _random_logits(rng, _aligner(rng, n_dec=3))
    params = list(aligner.named_params().values())
    for p in params:
        p.data = p.data.astype(np.float64)
    states = [h.astype(np.float64) for h in _stack(rng).states]
    stack = LayerStack(states=states, mask=np.ones(states[0].shape[:2], dtype=bool))
    weights = [rng.normal(size=(2, 4, 10)) for _ in range(3)]

    def loss():
        memories = aligner.fuse_all(stack).memories
        return total(concat([mul(m, w) for m, w in zip(memories, weights)], axis=0))

    assert_grad_matches(loss, params, rtol=1e-5)


def test_frozen_uniform_average_blocks_logit_gradient(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    subset = subset_from_spec("average", 3)
    with Tape() as tape:
        memories = aligner.fuse_all(stack, subset).memories
        loss = total(concat([mul(k, k) for k in memories], axis=0))
    backward(tape, loss)
    assert aligner.mixing_logits.grad is None or np.all(aligner.mixing_logits.grad == 0)
    assert aligner.fuse_in.weight.grad is not None


def test_single_member_subset_ignores_logit_values(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    subset = LayerSubset(indices=(2,))
    before = aligner.fuse_all(stack, subset).memories
    aligner.mixing_logits.data[:, 2] = -31.0
    after = aligner.fuse_all(stack, subset).memories
    for a, b in zip(before, after):
        assert np.allclose(a.data, b.data, atol=1e-7)


def test_stack_depth_mismatch(rng):
    aligner = _aligner(rng, n_enc=5)
    with pytest.raises(ConfigError, match="5"):
        aligner.fuse_all(_stack(rng, n_layers=3))


# ---------------------------------------------------------------------------
# subset spec parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,want",
    [
        ("first:2", (0, 1)),
        ("last:3", (4, 5, 6)),
        ("middle:3", (2, 3, 4)),
        ("last_hidden", (6,)),
        ("0,2,5", (0, 2, 5)),
        (" first:1 ", (0,)),
    ],
)
def test_subset_spec_forms(spec, want):
    assert subset_from_spec(spec, 6).indices == want


def test_average_is_frozen_uniform_over_all_states():
    subset = subset_from_spec("average", 6)
    assert subset.indices == tuple(range(7))
    assert subset.frozen_uniform


@pytest.mark.parametrize(
    "spec",
    ["first:0", "last:9", "middle:x", "sideways:2", "0,0,1", "7", "-1", "0,,2", ""],
)
def test_subset_spec_rejects_malformed(spec):
    with pytest.raises(ConfigError):
        subset_from_spec(spec, 6)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 7))
def test_named_windows_have_requested_size(k):
    for kind in ("first", "middle", "last"):
        subset = subset_from_spec(f"{kind}:{k}", 6)
        assert len(subset.indices) == k
        assert all(0 <= i <= 6 for i in subset.indices)
