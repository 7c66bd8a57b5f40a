"""Adapter and layer-wise aligner: mixing oracles, subsets, gradient flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerbridge.autodiff import Tape, backward, mul, sum_
from layerbridge.bridge import (
    Adapter,
    LayerSubset,
    LayerWiseAligner,
    adapt,
    aligner_weight_matrix,
    subset_from_spec,
)
from layerbridge.encoder import LayerStack
from layerbridge.errors import ConfigError, ContractError


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


def test_deep_adapter_has_extra_stage(rng):
    shallow = Adapter(rng, 8, 10)
    deep = Adapter(rng, 8, 10, deep=True)
    assert set(shallow.named_params()) == {"adapter.proj.weight", "adapter.proj.bias"}
    assert set(deep.named_params()) == {
        "adapter.pre.weight",
        "adapter.pre.bias",
        "adapter.proj.weight",
        "adapter.proj.bias",
    }


def test_adapter_parameter_count_at_reference_dims(rng):
    """Single linear 2048 -> 4096: weights plus bias."""
    adapter = Adapter(rng, d_enc=2048, d_dec=4096)
    count = sum(p.data.size for p in adapter.named_params().values())
    assert count == 2048 * 4096 + 4096


# ---------------------------------------------------------------------------
# aligner mixing against a loop oracle
# ---------------------------------------------------------------------------


def _naive_fuse(aligner, stack, layer_index, indices, uniform=False):
    """Recompute fuse_one's memory with explicit float64 loops."""
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


def test_fuse_matches_loop_oracle(rng):
    aligner = _aligner(rng)
    aligner.mixing_logits.data[...] = rng.normal(0, 1, size=aligner.mixing_logits.shape)
    stack = _stack(rng)
    for layer in (1, 2):
        memory = aligner.fuse_one(stack, layer)
        assert np.allclose(memory.data, _naive_fuse(aligner, stack, layer, range(3)), atol=1e-5)


def test_fuse_subset_matches_loop_oracle(rng):
    aligner = _aligner(rng)
    aligner.mixing_logits.data[...] = rng.normal(0, 1, size=aligner.mixing_logits.shape)
    stack = _stack(rng)
    subset = LayerSubset(indices=(0, 2, 3))
    memory = aligner.fuse_one(stack, 1, subset)
    assert np.allclose(memory.data, _naive_fuse(aligner, stack, 1, (0, 2, 3)), atol=1e-5)


def test_dominant_logit_selects_single_layer(rng):
    """A +40 logit margin makes the mixture numerically equal one state."""
    aligner = _aligner(rng)
    aligner.mixing_logits.data[0, 1] = 40.0
    stack = _stack(rng)
    k = aligner.fuse_one(stack, 1)
    only = [h.copy() for h in stack.states]
    for j in range(len(only)):
        if j != 1:
            only[j][...] = stack.states[1]
    for h in only:
        h.flags.writeable = False
    pinned = LayerStack(states=only, mask=stack.mask)
    k_want = aligner.fuse_one(pinned, 1)
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


def test_final_state_excluded_from_default_range(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    k_before = aligner.fuse_one(stack, 1)
    perturbed = [h.copy() for h in stack.states]
    perturbed[-1] = perturbed[-1] + 5.0
    for h in perturbed:
        h.flags.writeable = False
    k_after = aligner.fuse_one(LayerStack(states=perturbed, mask=stack.mask), 1)
    assert np.array_equal(k_before.data, k_after.data)


def test_support_state_changes_do_reach_output(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    k_before = aligner.fuse_one(stack, 1)
    perturbed = [h.copy() for h in stack.states]
    perturbed[0] = perturbed[0] + 5.0
    for h in perturbed:
        h.flags.writeable = False
    k_after = aligner.fuse_one(LayerStack(states=perturbed, mask=stack.mask), 1)
    assert not np.allclose(k_before.data, k_after.data)


def test_batch_permutation_equivariance(rng):
    aligner = _aligner(rng, d_enc=8)
    stack = _stack(rng, batch=3)
    k = aligner.fuse_one(stack, 1)
    perm = [2, 0, 1]
    permuted = [h[perm].copy() for h in stack.states]
    for h in permuted:
        h.flags.writeable = False
    k_perm = aligner.fuse_one(LayerStack(states=permuted, mask=stack.mask[perm]), 1)
    assert np.allclose(k.data[perm], k_perm.data, atol=1e-6)


def test_gradients_reach_mixing_logits_and_fusion_net(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    with Tape() as tape:
        memory = aligner.fuse_one(stack, 2)
        loss = sum_(mul(memory, memory))
    backward(tape, loss)
    assert aligner.mixing_logits.grad is not None
    # only the addressed row receives gradient, and only support columns
    assert np.any(aligner.mixing_logits.grad[1, :3] != 0)
    assert np.all(aligner.mixing_logits.grad[0] == 0)
    assert np.all(aligner.mixing_logits.grad[:, 3] == 0)
    assert aligner.fuse_in.weight.grad is not None
    assert aligner.k_head.weight.grad is not None


def test_frozen_uniform_average_blocks_logit_gradient(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    subset = subset_from_spec("average", 3)
    with Tape() as tape:
        k = aligner.fuse_one(stack, 1, subset)
        loss = sum_(mul(k, k))
    backward(tape, loss)
    assert aligner.mixing_logits.grad is None or np.all(aligner.mixing_logits.grad == 0)


def test_single_member_subset_ignores_logit_values(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    subset = LayerSubset(indices=(2,))
    k_a = aligner.fuse_one(stack, 1, subset)
    aligner.mixing_logits.data[0, 2] = -31.0
    k_b = aligner.fuse_one(stack, 1, subset)
    assert np.allclose(k_a.data, k_b.data, atol=1e-7)


def test_layer_index_bounds(rng):
    aligner = _aligner(rng)
    stack = _stack(rng)
    with pytest.raises(ContractError):
        aligner.fuse_one(stack, 0)
    with pytest.raises(ContractError):
        aligner.fuse_one(stack, 3)


def test_stack_depth_mismatch(rng):
    aligner = _aligner(rng, n_enc=5)
    with pytest.raises(ConfigError, match="5"):
        aligner.fuse_one(_stack(rng, n_layers=3), 1)


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
