"""Frozen bidirectional encoder: shapes, determinism, masking, validation."""

import hashlib

import numpy as np
import pytest

from layerbridge.encoder import Encoder, EncoderConfig
from layerbridge.errors import ConfigError, InputError


@pytest.fixture(scope="module")
def encoder():
    return Encoder(EncoderConfig(n_layers=4), seed=7)


def _tokens(rng, batch, length, vocab=512):
    return rng.integers(0, vocab, size=(batch, length), dtype=np.int64)


def test_state_stack_shape_contract(encoder, rng):
    tokens = _tokens(rng, 2, 5)
    stack = encoder.forward(tokens)
    assert len(stack.states) == 5  # embeddings plus one per layer
    for h in stack.states:
        assert h.shape == (2, 5, 64)
    assert stack.n_layers == 4
    assert stack.final is stack.states[-1]


def test_states_are_read_only(encoder, rng):
    stack = encoder.forward(_tokens(rng, 1, 4))
    with pytest.raises(ValueError):
        stack.states[0][0, 0, 0] = 1.0


def test_duplicate_rows_encode_identically(encoder, rng):
    row = _tokens(rng, 1, 6)
    tokens = np.concatenate([row, row], axis=0)
    stack = encoder.forward(tokens)
    for h in stack.states:
        assert np.array_equal(h[0], h[1])


def test_forward_is_deterministic_across_instances(rng):
    tokens = _tokens(rng, 2, 5)
    a = Encoder(EncoderConfig(), seed=7).forward(tokens)
    b = Encoder(EncoderConfig(), seed=7).forward(tokens)
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x, y)


def test_parameters_are_frozen_and_seed_pinned():
    params_a = Encoder(EncoderConfig(), seed=7).named_params("encoder")
    params_b = Encoder(EncoderConfig(), seed=7).named_params("encoder")
    assert sorted(params_a) == sorted(params_b)
    for name, p in params_a.items():
        assert not p.requires_grad, name
        assert np.array_equal(p.data, params_b[name].data)
        assert name.startswith("encoder.")


def test_checksum_stable_for_fixed_seed():
    params = Encoder(EncoderConfig(), seed=7).named_params("encoder")
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(params[name].data.tobytes())
    first = digest.hexdigest()

    params = Encoder(EncoderConfig(), seed=7).named_params("encoder")
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(params[name].data.tobytes())
    assert digest.hexdigest() == first


def test_padding_content_cannot_leak_into_real_positions(encoder, rng):
    """With a mask, token ids under padding must not affect real positions."""
    tokens = _tokens(rng, 1, 6)
    mask = np.array([[True, True, True, True, False, False]])
    stack_a = encoder.forward(tokens, mask)
    mutated = tokens.copy()
    mutated[0, 4:] = (mutated[0, 4:] + 17) % 512
    stack_b = encoder.forward(mutated, mask)
    for ha, hb in zip(stack_a.states, stack_b.states):
        assert np.allclose(ha[0, :4], hb[0, :4], atol=1e-6)


def test_out_of_vocab_names_batch_and_position(encoder):
    tokens = np.zeros((2, 3), dtype=np.int64)
    tokens[1, 2] = 512
    with pytest.raises(InputError, match=r"batch 1.*position 2"):
        encoder.forward(tokens)


def test_overlength_input_rejected(encoder):
    tokens = np.zeros((1, 65), dtype=np.int64)
    with pytest.raises(InputError, match="65"):
        encoder.forward(tokens)


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(d_enc=30, n_heads=4)  # not divisible
    with pytest.raises(ConfigError):
        EncoderConfig(n_layers=0)
    with pytest.raises(ConfigError):
        EncoderConfig(vocab_size=0)
