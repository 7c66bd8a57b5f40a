"""Frozen decoder with gated fusion attention: equivalences and oracles."""

import numpy as np
import pytest

from layerbridge.autodiff import Tape, Tensor, backward, concat, mul, sum_
from layerbridge.bridge import FusedKV
from layerbridge.decoder import (
    DecodeCache,
    Decoder,
    DecoderConfig,
    DynamicGates,
    GateVector,
    generate,
)
from layerbridge.errors import ConfigError, ContractError, NumericError
from layerbridge.nn import causal_bias
from conftest import assert_grad_matches


@pytest.fixture(scope="module")
def config():
    return DecoderConfig(vocab_size=32, d_dec=16, n_layers=2, n_heads=2, d_ff=24, max_positions=12)


@pytest.fixture(scope="module")
def decoder(config):
    return Decoder(config, seed=11)


def _t0(rng, decoder, batch=2, length=5):
    tokens = rng.integers(4, decoder.config.vocab_size, size=(batch, length))
    return decoder.embed_tokens(tokens)


def _fused(rng, decoder, batch=2, src_len=3, zero=False):
    d = decoder.config.d_dec
    pairs = []
    for _ in range(decoder.config.n_layers):
        if zero:
            k = Tensor(np.zeros((batch, src_len, d), dtype=np.float32))
            v = Tensor(np.zeros((batch, src_len, d), dtype=np.float32))
        else:
            k = Tensor(rng.normal(0, 1, size=(batch, src_len, d)).astype(np.float32))
            v = Tensor(rng.normal(0, 1, size=(batch, src_len, d)).astype(np.float32))
        pairs.append((k, v))
    return FusedKV(pairs=pairs, mask=np.ones((batch, src_len), dtype=bool))


def _block(decoder, t_prev, h_k, h_v, gates):
    """Decoder layer 1 alone, reading one (K, V) memory whose positions are all valid."""
    batch, src_len, _ = h_k.shape
    fused = FusedKV(pairs=[(h_k, h_v)] * decoder.config.n_layers, mask=np.ones((batch, src_len), dtype=bool))
    out, *_ = decoder.block(1, t_prev, causal_bias(t_prev.shape[1]), fused, gates)
    return out


def _gates(decoder, first):
    gates = GateVector(decoder.config.n_layers)
    gates.values[0].data[0] = first
    return gates


# ---------------------------------------------------------------------------
# gate behavior
# ---------------------------------------------------------------------------


def test_zero_gates_equal_cross_attention_free_forward(decoder, rng):
    t0 = _t0(rng, decoder)
    fused = _fused(rng, decoder)
    gates = GateVector(decoder.config.n_layers)
    with_ca, _ = decoder.forward(t0, fused, gates)
    without_ca, _ = decoder.forward(t0, None, None)
    assert np.allclose(with_ca.data, without_ca.data, atol=1e-6)


def test_fresh_gates_are_exactly_zero():
    gates = GateVector(4)
    assert gates.snapshot() == [0.0, 0.0, 0.0, 0.0]
    names = sorted(gates.named_params())
    assert names == ["gates.layer1", "gates.layer2", "gates.layer3", "gates.layer4"]


def test_nonzero_gate_changes_logits(decoder, rng):
    t0 = _t0(rng, decoder)
    fused = _fused(rng, decoder)
    gates = GateVector(decoder.config.n_layers)
    base, _ = decoder.forward(t0, fused, gates)
    gates.values[0].data[0] = 0.7
    moved, _ = decoder.forward(t0, fused, gates)
    assert not np.allclose(base.data, moved.data, atol=1e-6)


def test_zero_valued_kv_is_inert_even_with_open_gates(decoder, rng):
    """CA over all-zero values returns zero vectors, so the layer reduces to
    its self-attention-only form regardless of gate size."""
    t0 = _t0(rng, decoder)
    fused = _fused(rng, decoder, zero=True)
    gates = GateVector(decoder.config.n_layers)
    for g in gates.values:
        g.data[0] = 2.5
    with_ca, _ = decoder.forward(t0, fused, gates)
    without_ca, _ = decoder.forward(t0, None, None)
    assert np.allclose(with_ca.data, without_ca.data, atol=1e-5)


def test_perturbing_fused_inputs_respects_gates(decoder, rng):
    t0 = _t0(rng, decoder)
    fused = _fused(rng, decoder)
    bumped = FusedKV(
        pairs=[(Tensor(k.data + 3.0), Tensor(v.data - 2.0)) for k, v in fused.pairs],
        mask=fused.mask,
    )
    zero_gates = GateVector(decoder.config.n_layers)
    a, _ = decoder.forward(t0, fused, zero_gates)
    b, _ = decoder.forward(t0, bumped, zero_gates)
    assert np.allclose(a.data, b.data, atol=1e-7)

    open_gates = GateVector(decoder.config.n_layers)
    for g in open_gates.values:
        g.data[0] = 1.0
    a, _ = decoder.forward(t0, fused, open_gates)
    b, _ = decoder.forward(t0, bumped, open_gates)
    assert not np.allclose(a.data, b.data, atol=1e-6)


# ---------------------------------------------------------------------------
# Decoder.block against an independent two-pass oracle
# ---------------------------------------------------------------------------


def _np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _np_attention(q, k, v, n_heads, bias):
    b, s_q, d = q.shape
    s_k = k.shape[1]
    hd = d // n_heads

    def split(x):
        return x.reshape(b, x.shape[1], n_heads, hd).transpose(0, 2, 1, 3)

    qs, ks, vs = split(q), split(k), split(v)
    scores = qs @ ks.transpose(0, 1, 3, 2) / np.sqrt(hd)
    if bias is not None:
        scores = scores + bias
    scores = scores - scores.max(-1, keepdims=True)
    w = np.exp(scores)
    w = w / w.sum(-1, keepdims=True)
    out = w @ vs
    return out.transpose(0, 2, 1, 3).reshape(b, s_q, d)


def _oracle_block(decoder, idx, t_prev, h_k, h_v, gate):
    """float64 two-pass recomputation of one gated block."""
    layer = decoder.layers[idx - 1]
    w = {k: v.data.astype(np.float64) for k, v in layer.items()}
    x = t_prev.astype(np.float64)
    dec_len = x.shape[1]
    normed = _np_layer_norm(x, w["ln1_gain"], w["ln1_bias"])
    q = normed @ w["wq"]
    causal = causal_bias(dec_len).astype(np.float64)
    sa = _np_attention(q, normed @ w["wk"], normed @ w["wv"], decoder.config.n_heads, causal) @ w["wo"]
    ca = _np_attention(q, h_k @ w["wk"], h_v @ w["wv"], decoder.config.n_heads, None) @ w["wo"]
    x = x + sa + gate * ca
    normed2 = _np_layer_norm(x, w["ln2_gain"], w["ln2_bias"])
    ff = np.maximum(normed2 @ w["ff1_w"] + w["ff1_b"], 0.0) @ w["ff2_w"]
    return x + ff + w["ff2_b"]


def test_ga_layer_matches_two_pass_oracle(decoder, rng):
    t_prev = Tensor(rng.normal(0, 1, size=(2, 4, 16)).astype(np.float32))
    h_k = Tensor(rng.normal(0, 1, size=(2, 3, 16)).astype(np.float32))
    h_v = Tensor(rng.normal(0, 1, size=(2, 3, 16)).astype(np.float32))
    got = _block(decoder, t_prev, h_k, h_v, _gates(decoder, 0.6))
    want = _oracle_block(decoder, 1, t_prev.data, h_k.data, h_v.data, 0.6)
    assert np.allclose(got.data, want, atol=1e-5)


def test_dynamic_gate_with_constant_bias_equals_static_tanh(decoder, rng):
    t_prev = Tensor(rng.normal(0, 1, size=(1, 4, 16)).astype(np.float32))
    h_k = Tensor(rng.normal(0, 1, size=(1, 3, 16)).astype(np.float32))
    h_v = Tensor(rng.normal(0, 1, size=(1, 3, 16)).astype(np.float32))
    dyn = DynamicGates(decoder.config.n_layers, 16)
    dyn.nets[0]["bias"].data[0] = 0.9
    got = _block(decoder, t_prev, h_k, h_v, dyn)
    static = _block(decoder, t_prev, h_k, h_v, _gates(decoder, np.tanh(np.float32(0.9))))
    assert np.allclose(got.data, static.data, atol=1e-6)


def test_zero_initialized_dynamic_gates_reduce_to_baseline(decoder, rng):
    t0 = _t0(rng, decoder)
    fused = _fused(rng, decoder)
    dyn = DynamicGates(decoder.config.n_layers, decoder.config.d_dec)
    with_dyn, _ = decoder.forward(t0, fused, dyn)
    without, _ = decoder.forward(t0, None, None)
    assert np.allclose(with_dyn.data, without.data, atol=1e-6)


def test_dynamic_gate_gradients_match_finite_differences(decoder, rng):
    t_prev = Tensor(rng.normal(0, 1, size=(1, 3, 16)).astype(np.float64))
    h_k = Tensor(rng.normal(0, 1, size=(1, 2, 16)).astype(np.float64))
    h_v = Tensor(rng.normal(0, 1, size=(1, 2, 16)).astype(np.float64))
    dyn = DynamicGates(decoder.config.n_layers, 16)
    dyn.nets[0]["weight"].data = rng.normal(0, 0.3, size=(16, 1))
    dyn.nets[0]["bias"].data = rng.normal(0, 0.3, size=(1,))
    params = [dyn.nets[0]["weight"], dyn.nets[0]["bias"]]

    def loss():
        out = _block(decoder, t_prev, h_k, h_v, dyn)
        return mul(sum_(mul(out, out)), 1.0 / out.size)

    assert_grad_matches(loss, params, h=1e-5, rtol=1e-3)


# ---------------------------------------------------------------------------
# structure: causality, weight sharing, numerics
# ---------------------------------------------------------------------------


def test_causality_no_future_leakage(decoder, rng):
    tokens = rng.integers(4, 32, size=(1, 6))
    t0 = decoder.embed_tokens(tokens)
    logits_a, _ = decoder.forward(t0, None, None)
    mutated = tokens.copy()
    mutated[0, 4] = (mutated[0, 4] + 7) % 28 + 4
    t0_b = decoder.embed_tokens(mutated)
    logits_b, _ = decoder.forward(t0_b, None, None)
    assert np.allclose(logits_a.data[0, :4], logits_b.data[0, :4], atol=1e-6)
    assert not np.allclose(logits_a.data[0, 4:], logits_b.data[0, 4:], atol=1e-6)


def test_self_and_cross_attention_share_parameter_objects(decoder):
    """The projections are one parameter set, not copies: mutating a copy is
    impossible because no copy exists."""
    params = decoder.named_params()
    for i in range(len(decoder.layers)):
        layer = decoder.layers[i]
        assert params[f"decoder.layer{i}.wq"] is layer["wq"]
        assert params[f"decoder.layer{i}.wk"] is layer["wk"]
        assert params[f"decoder.layer{i}.wv"] is layer["wv"]
        assert params[f"decoder.layer{i}.wo"] is layer["wo"]


def test_all_decoder_parameters_frozen(decoder):
    for name, p in decoder.named_params().items():
        assert not p.requires_grad, name


def test_nonfinite_activation_raises_numeric_error(decoder):
    t0 = Tensor(np.full((1, 2, 16), np.inf, dtype=np.float32))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="layer 1"):
        decoder.forward(t0, None, None)


def test_norm_records_have_layer_and_token_shape(decoder, rng):
    t0 = _t0(rng, decoder, batch=2, length=5)
    fused = _fused(rng, decoder)
    gates = GateVector(decoder.config.n_layers)
    _, state = decoder.forward(t0, fused, gates)
    m = decoder.config.n_layers
    assert len(state.sa_outputs) == len(state.ca_outputs) == len(state.gates) == m
    for sa, ca, gate, g in zip(state.sa_outputs, state.ca_outputs, state.gates, gates.values):
        assert sa.shape == ca.shape == (2, 5, decoder.config.d_dec)
        assert gate is g  # kept by reference, not copied
        assert np.all(gate.data == 0.0)


def test_norm_records_are_none_without_cross_attention(decoder, rng):
    _, state = decoder.forward(_t0(rng, decoder), None, None)
    assert len(state.sa_outputs) == decoder.config.n_layers
    assert state.ca_outputs == state.gates == [None] * decoder.config.n_layers


def test_gate_doubling_doubles_recorded_ca_norm(decoder, rng):
    t0 = _t0(rng, decoder)
    fused = _fused(rng, decoder)
    gates = GateVector(decoder.config.n_layers)
    gates.values[0].data[0] = 0.4
    _, state_a = decoder.forward(t0, fused, gates)
    gate_a = float(state_a.gates[0].data[0])
    gates.values[0].data[0] = 0.8
    _, state_b = decoder.forward(t0, fused, gates)
    # layer 1's CA output does not depend on its own gate; only the factor moves
    assert np.array_equal(state_b.ca_outputs[0].data, state_a.ca_outputs[0].data)
    assert float(state_b.gates[0].data[0]) == 2.0 * gate_a


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_budget_one_returns_one_token(decoder, rng):
    prompt = _t0(rng, decoder, batch=1, length=3)
    out = generate(decoder, prompt, None, None, max_new_tokens=1)
    assert len(out) <= 1


def test_generate_stops_at_end_marker_without_returning_it(config, rng):
    rigged = Decoder(config, seed=11)
    rigged.head.bias.data[...] = 0.0
    rigged.head.bias.data[config.eos_id] = 1e4  # eos always wins
    prompt = rigged.embed_tokens(rng.integers(4, 32, size=(1, 3)))
    out = generate(rigged, prompt, None, None, max_new_tokens=5)
    assert out == []


def test_generate_respects_budget(config, rng):
    rigged = Decoder(config, seed=11)
    rigged.head.bias.data[...] = 0.0
    rigged.head.bias.data[7] = 1e4  # never eos
    prompt = rigged.embed_tokens(rng.integers(4, 32, size=(1, 3)))
    out = generate(rigged, prompt, None, None, max_new_tokens=4)
    assert out == [7, 7, 7, 7]


def test_generate_rejects_zero_budget(decoder, rng):
    prompt = _t0(rng, decoder, batch=1, length=2)
    with pytest.raises(ContractError):
        generate(decoder, prompt, None, None, max_new_tokens=0)


def test_generate_rejects_batched_prompt(decoder, rng):
    prompt = _t0(rng, decoder, batch=2, length=2)
    with pytest.raises(ContractError):
        generate(decoder, prompt, None, None, max_new_tokens=1)


def test_generate_stops_at_max_positions(config, rng):
    rigged = Decoder(config, seed=11)
    rigged.head.bias.data[...] = 0.0
    rigged.head.bias.data[7] = 1e4  # never eos
    for length, expected in ((config.max_positions - 2, [7, 7]), (config.max_positions, [])):
        prompt = rigged.embed_tokens(rng.integers(4, 32, size=(1, length)))
        assert generate(rigged, prompt, None, None, max_new_tokens=5) == expected


def test_cached_forward_checks_offset_plus_length(decoder, rng):
    cache = DecodeCache()
    decoder.forward(_t0(rng, decoder, batch=1, length=decoder.config.max_positions), None, None, cache=cache)
    with pytest.raises(ConfigError, match="exceeds max_positions"):
        decoder.forward(_t0(rng, decoder, batch=1, length=1), None, None, cache=cache)


def test_cached_step_takes_one_position(decoder, rng):
    cache = DecodeCache()
    decoder.forward(_t0(rng, decoder, batch=1, length=3), None, None, cache=cache)
    with pytest.raises(ContractError, match="one position"):
        decoder.forward(_t0(rng, decoder, batch=1, length=2), None, None, cache=cache)


def _recompute_generate(decoder, prompt, fused, gates, max_new_tokens):
    """Reference greedy decode: re-run the whole prefix for every token."""
    c = decoder.config
    out, t0 = [], prompt
    for _ in range(max_new_tokens):
        if t0.shape[1] >= c.max_positions:
            break
        logits, _ = decoder.forward(t0, fused, gates)
        next_id = int(np.argmax(logits.data[0, -1]))
        if next_id == c.eos_id:
            break
        out.append(next_id)
        t0 = concat([t0, decoder.embed_tokens(np.array([[next_id]]))], axis=1)
    return out


def _gate_sources(decoder, rng):
    n, d = decoder.config.n_layers, decoder.config.d_dec
    fused = _fused(rng, decoder, batch=1, src_len=5)
    fused.mask[0, [1, 3]] = False
    gates = GateVector(n)
    for g in gates.values:
        g.data[0] = rng.uniform(0.25, 0.75)
    dyn = DynamicGates(n, d)
    for net in dyn.nets:
        net["weight"].data[...] = rng.normal(0, 0.3, size=(d, 1))
        net["bias"].data[0] = rng.uniform(0.25, 0.75)
    return [(None, None), (fused, gates), (fused, dyn)]


def test_generate_matches_full_recompute(decoder, rng):
    c = decoder.config
    for fused, gates in _gate_sources(decoder, rng):
        for _ in range(4):
            prompt = _t0(rng, decoder, batch=1, length=int(rng.integers(2, 6)))
            expected = _recompute_generate(decoder, prompt, fused, gates, c.max_positions)
            assert generate(decoder, prompt, fused, gates, c.max_positions) == expected

            # step by step: each cached step's last row is the full forward's last row
            cache, t0, step = DecodeCache(), prompt, prompt
            while t0.shape[1] < c.max_positions:
                cached, _ = decoder.forward(step, fused, gates, cache=cache)
                full, _ = decoder.forward(t0, fused, gates)
                np.testing.assert_allclose(cached.data[0, -1], full.data[0, -1], rtol=0, atol=1e-5)
                step = decoder.embed_tokens(np.array([[int(np.argmax(full.data[0, -1]))]]))
                t0 = concat([t0, step], axis=1)
            assert cache.offset == c.max_positions - 1


def test_generate_is_deterministic(decoder, rng):
    prompt_tokens = rng.integers(4, 32, size=(1, 3))
    a = generate(decoder, decoder.embed_tokens(prompt_tokens), None, None, max_new_tokens=6)
    b = generate(decoder, decoder.embed_tokens(prompt_tokens), None, None, max_new_tokens=6)
    assert a == b


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_decoder_config_validation():
    with pytest.raises(ConfigError):
        DecoderConfig(d_dec=30, n_heads=4)
    with pytest.raises(ConfigError):
        DecoderConfig(pad_id=1, bos_id=1)
    with pytest.raises(ConfigError):
        DecoderConfig(eos_id=512)
    with pytest.raises(ConfigError):
        DecoderConfig(head_scale=0.0)


def test_layer_count_mismatch_between_fused_and_decoder(decoder, rng):
    t0 = _t0(rng, decoder)
    pairs = [(Tensor(np.zeros((2, 3, 16), dtype=np.float32)),) * 2]
    fused = FusedKV(pairs=pairs, mask=np.ones((2, 3), dtype=bool))
    with pytest.raises(ConfigError, match="1 layers"):
        decoder.forward(t0, fused, GateVector(decoder.config.n_layers))


def test_fused_kv_needs_a_gate_source(decoder, rng):
    t0 = _t0(rng, decoder)
    with pytest.raises(ConfigError, match="needs a gate source"):
        decoder.forward(t0, _fused(rng, decoder), None)


def test_both_gate_kinds_answer_gate_for(decoder, rng):
    hidden = _t0(rng, decoder)
    gates = GateVector(decoder.config.n_layers)
    assert gates.gate_for(2, hidden) is gates.values[1]
    dyn = DynamicGates(decoder.config.n_layers, decoder.config.d_dec)
    assert dyn.gate_for(2, hidden).shape == (2, 5, 1)
