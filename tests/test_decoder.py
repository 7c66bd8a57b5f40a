"""Frozen decoder with gated fusion attention: equivalences and oracles."""

import dataclasses

import numpy as np
import pytest

from layerbridge.autodiff import Tape, Tensor, concat
from layerbridge.bridge import FusedKV
from layerbridge.data import EOS
from layerbridge.decoder import (
    DecodeCache,
    Decoder,
    DecoderConfig,
    GateVector,
    Prefill,
    generate,
)
from layerbridge.errors import ConfigError, ContractError, InputError, NumericError
from layerbridge.nn import causal_bias, padding_bias


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
    memories = []
    for _ in range(decoder.config.n_layers):
        if zero:
            memories.append(Tensor(np.zeros((batch, src_len, d), dtype=np.float32)))
        else:
            memories.append(Tensor(rng.normal(0, 1, size=(batch, src_len, d)).astype(np.float32)))
    return decoder.project(FusedKV(memories=memories, bias=padding_bias(np.ones((batch, src_len), dtype=bool))))


def _block(decoder, t_prev, h, gates):
    """Decoder layer 1 alone, reading one memory whose positions are all valid."""
    batch, src_len, _ = h.shape
    bias = padding_bias(np.ones((batch, src_len), dtype=bool))
    fused = decoder.project(FusedKV(memories=[h] * decoder.config.n_layers, bias=bias))
    out, *_ = decoder.block(1, t_prev, causal_bias(t_prev.shape[1]), fused, gates)
    return out


def _gates(decoder, first):
    gates = GateVector(decoder.config.n_layers)
    gates.values[0].data[0] = first
    return gates


def _generate(decoder, prompt, fused, gates, max_new_tokens):
    """Greedy decode of one prompt [1, P, d_dec], queued alone in a ``Prefill``."""
    [row] = Prefill(decoder, gates).add(prompt, fused)
    return generate(row, max_new_tokens)


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
    """CA over an all-zero memory reads all-zero values (``wv`` has no bias),
    so the layer reduces to its self-attention-only form regardless of gate
    size."""
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
    bumped = decoder.project(FusedKV(
        memories=[Tensor(h.data + 3.0) for h in fused.memories],
        bias=fused.bias,
    ))
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


def _np_layer_norm(x, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


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


def _oracle_block(decoder, idx, t_prev, h, gate):
    """float64 two-pass recomputation of one gated block."""
    layer = decoder.layers[idx - 1]
    w = {k: v.data.astype(np.float64) for k, v in layer.items()}
    x = t_prev.astype(np.float64)
    dec_len = x.shape[1]
    normed = _np_layer_norm(x)
    q = normed @ w["wq"]
    causal = causal_bias(dec_len).astype(np.float64)
    sa = _np_attention(q, normed @ w["wk"], normed @ w["wv"], decoder.config.n_heads, causal) @ w["wo"]
    ca = _np_attention(q, h @ w["wk"], h @ w["wv"], decoder.config.n_heads, None) @ w["wo"]
    x = x + sa + gate * ca
    normed2 = _np_layer_norm(x)
    return x + np.maximum(normed2 @ w["ff1_w"], 0.0) @ w["ff2_w"]


def test_ga_layer_matches_two_pass_oracle(decoder, rng):
    t_prev = Tensor(rng.normal(0, 1, size=(2, 4, 16)).astype(np.float32))
    h = Tensor(rng.normal(0, 1, size=(2, 3, 16)).astype(np.float32))
    got = _block(decoder, t_prev, h, _gates(decoder, 0.6))
    want = _oracle_block(decoder, 1, t_prev.data, h.data, 0.6)
    assert np.allclose(got.data, want, atol=1e-5)


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
    params = decoder.named_params("decoder")
    for i in range(len(decoder.layers)):
        layer = decoder.layers[i]
        assert params[f"decoder.layer{i}.wq"] is layer["wq"]
        assert params[f"decoder.layer{i}.wk"] is layer["wk"]
        assert params[f"decoder.layer{i}.wv"] is layer["wv"]
        assert params[f"decoder.layer{i}.wo"] is layer["wo"]


def test_all_decoder_parameters_frozen(decoder):
    for name, p in decoder.named_params("decoder").items():
        assert not p.requires_grad, name


def test_nonfinite_activation_raises_numeric_error(decoder):
    t0 = Tensor(np.full((1, 2, 16), np.inf, dtype=np.float32))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="layer 1"):
        decoder.forward(t0, None, None)


def test_numeric_error_names_the_first_non_finite_layer(config, rng):
    # layer 2 of 3 adds inf, which the residual stream would carry into
    # layer 3; the error names layer 2
    dec = Decoder(dataclasses.replace(config, n_layers=3), seed=11)
    dec.layers[1]["ff2_w"].data[:, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="layer 2$"):
        dec.forward(_t0(rng, dec), None, None)


def test_norm_records_have_layer_and_token_shape(decoder, rng):
    t0 = _t0(rng, decoder, batch=2, length=5)
    fused = _fused(rng, decoder)
    gates = GateVector(decoder.config.n_layers)
    _, state = decoder.forward(t0, fused, gates)
    m = decoder.config.n_layers
    assert len(state.sa_outputs) == len(state.ca_outputs) == m
    for sa, ca in zip(state.sa_outputs, state.ca_outputs):
        assert sa.shape == ca.shape == (2, 5, decoder.config.d_dec)


def test_norm_records_are_none_without_cross_attention(decoder, rng):
    _, state = decoder.forward(_t0(rng, decoder), None, None)
    assert len(state.sa_outputs) == decoder.config.n_layers
    assert state.ca_outputs == [None] * decoder.config.n_layers


def test_gate_doubling_doubles_recorded_ca_norm(decoder, rng):
    t0 = _t0(rng, decoder)
    fused = _fused(rng, decoder)
    gates = GateVector(decoder.config.n_layers)
    gates.values[0].data[0] = 0.4
    _, state_a = decoder.forward(t0, fused, gates)
    gates.values[0].data[0] = 0.8
    _, state_b = decoder.forward(t0, fused, gates)
    # layer 1's CA output does not depend on its own gate; only the factor moves
    assert np.array_equal(state_b.ca_outputs[0].data, state_a.ca_outputs[0].data)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_budget_one_returns_one_token(decoder, rng):
    prompt = _t0(rng, decoder, batch=1, length=3)
    out = _generate(decoder, prompt, None, None, max_new_tokens=1)
    assert len(out) <= 1


def _rigged(config, winner):
    """A decoder whose every returned position predicts ``winner``: its
    forward adds a large logit to that id."""
    rigged = Decoder(config, seed=11)
    forward = rigged.forward

    def forward_to_winner(*args, **kwargs):
        logits, state = forward(*args, **kwargs)
        boost = np.zeros(config.vocab_size, dtype=np.float32)
        boost[winner] = 1e4
        return Tensor(logits.data + boost), state

    rigged.forward = forward_to_winner
    return rigged


def test_generate_stops_at_end_marker_without_returning_it(config, rng):
    rigged = _rigged(config, EOS)  # eos always wins
    prompt = rigged.embed_tokens(rng.integers(4, 32, size=(1, 3)))
    out = _generate(rigged, prompt, None, None, max_new_tokens=5)
    assert out == []


def test_generate_respects_budget(config, rng):
    rigged = _rigged(config, 7)  # never eos
    prompt = rigged.embed_tokens(rng.integers(4, 32, size=(1, 3)))
    out = _generate(rigged, prompt, None, None, max_new_tokens=4)
    assert out == [7, 7, 7, 7]


def test_generate_rejects_zero_budget(decoder, rng):
    prompt = _t0(rng, decoder, batch=1, length=2)
    with pytest.raises(ContractError):
        _generate(decoder, prompt, None, None, max_new_tokens=0)


def test_generate_stops_at_max_positions(config, rng):
    """A prompt two positions short of ``max_positions`` answers two tokens;
    prompts that fill it are not queued, so they get no row to decode."""
    rigged = _rigged(config, 7)  # never eos
    prompt = rigged.embed_tokens(rng.integers(4, 32, size=(1, config.max_positions - 2)))
    assert _generate(rigged, prompt, None, None, max_new_tokens=5) == [7, 7]
    full = rigged.embed_tokens(rng.integers(4, 32, size=(3, config.max_positions)))
    prefill = Prefill(rigged, None)
    assert prefill.add(full, None) == [None, None, None]
    assert prefill.queued == []


def test_a_prompt_row_is_decoded_once(decoder, rng):
    prefill = Prefill(decoder, None)
    rows = prefill.add(_t0(rng, decoder, batch=2, length=3), None)
    rows += prefill.add(_t0(rng, decoder, batch=1, length=4), None)
    generate(rows[1], 2)
    generate(rows[2], 2)
    with pytest.raises(ContractError, match="row 1 of prompt group 0 was already decoded"):
        generate(rows[1], 2)
    with pytest.raises(ContractError, match="row 0 of prompt group 1 was already decoded"):
        generate(rows[2], 2)
    generate(rows[0], 2)


def test_cached_forward_checks_offset_plus_length(decoder, rng):
    cache = DecodeCache()
    decoder.forward(_t0(rng, decoder, batch=1, length=decoder.config.max_positions), None, None, cache=cache)
    with pytest.raises(InputError, match="exceeds max_positions"):
        decoder.forward(_t0(rng, decoder, batch=1, length=1), None, None, cache=cache)


def test_cached_step_takes_one_position(decoder, rng):
    cache = DecodeCache()
    decoder.forward(_t0(rng, decoder, batch=1, length=3), None, None, cache=cache)
    with pytest.raises(ContractError, match="one position"):
        decoder.forward(_t0(rng, decoder, batch=1, length=2), None, None, cache=cache)


def test_cached_decode_allocates_its_buffers_once(decoder, rng):
    """The prompt call allocates buffers exactly as long as its prompts; a
    row given room by ``row`` then steps in its own buffers, in place, and
    refuses a step past them."""
    c = decoder.config
    cache = DecodeCache()
    decoder.forward(_t0(rng, decoder, batch=2, length=3), None, None, cache=cache)
    assert sorted(cache.self_kv) == list(range(1, c.n_layers + 1))
    assert all(b.shape == (2, 3, c.d_dec) for kv in cache.self_kv.values() for b in kv)
    row = cache.row(1, 7)
    buffers = {i: tuple(kv) for i, kv in row.self_kv.items()}
    assert all(b.shape == (1, 7, c.d_dec) for kv in buffers.values() for b in kv)
    for i, (k, v) in row.self_kv.items():
        assert np.array_equal(k[0, :3], cache.self_kv[i][0][1])
        assert np.array_equal(v[0, :3], cache.self_kv[i][1][1])
    for _ in range(4):
        decoder.forward(_t0(rng, decoder, batch=1, length=1), None, None, cache=row)
    assert row.offset == 7
    for i, (k, v) in row.self_kv.items():
        assert k is buffers[i][0] and v is buffers[i][1]
    with pytest.raises(ContractError, match="hold 7 positions"):
        decoder.forward(_t0(rng, decoder, batch=1, length=1), None, None, cache=row)


@pytest.mark.parametrize("bench_width", [False, True])
def test_cached_prompt_call_keeps_the_last_position_logits_bitwise(decoder, rng, bench_width, monkeypatch):
    """``generate``'s prompt call runs the final norm and the head on its last
    two positions at most, and their last row has the bits of the uncached
    forward's last row, at the fixture's widths and the benchmark's."""
    if bench_width:
        decoder = Decoder(DecoderConfig(), seed=3)
    fused, gates = _gate_sources(decoder, rng)[1]
    calls = []
    forward = Decoder.forward

    def recorded(self, t0, *args, **kwargs):
        out = forward(self, t0, *args, **kwargs)
        calls.append((t0.shape[1], out))
        return out

    for length in range(1, min(decoder.config.max_positions - 1, 20) + 1):
        prompt = _t0(rng, decoder, batch=1, length=length)
        calls.clear()
        monkeypatch.setattr(Decoder, "forward", recorded)
        _generate(decoder, prompt, fused, gates, 1)
        monkeypatch.setattr(Decoder, "forward", forward)
        [(fed, (cached, state))] = calls
        full, _ = decoder.forward(prompt, fused, gates)
        last_rows = cached.data.reshape(-1, decoder.config.vocab_size)
        assert fed == length
        assert last_rows.shape == (min(length, 2), decoder.config.vocab_size)
        # a cached forward records its input and no layer
        assert [t.shape for t in state.states] == [(1, length, decoder.config.d_dec)]
        assert state.sa_outputs == state.ca_outputs == []
        np.testing.assert_array_equal(last_rows[-1], full.data[0, -1])


def test_cached_forward_takes_one_sequence_from_the_prompt_on(decoder, rng):
    """The prompt call may feed several equal-length prompts; every later
    call feeds one position of one sequence."""
    cache = DecodeCache()
    decoder.forward(_t0(rng, decoder, batch=2, length=3), None, None, cache=cache)
    with pytest.raises(ContractError, match="one sequence"):
        decoder.forward(_t0(rng, decoder, batch=2, length=1), None, None, cache=cache)


def test_cached_forward_refuses_a_tape_over_a_grad_requiring_input(decoder, rng):
    t0 = Tensor(_t0(rng, decoder, batch=1, length=3).data, requires_grad=True)
    with Tape():
        with pytest.raises(ContractError, match="in place"):
            decoder.forward(t0, None, None, cache=DecodeCache())
    decoder.forward(t0, None, None, cache=DecodeCache())  # no tape: nothing to corrupt


def _recompute_generate(decoder, prompt, fused, gates, max_new_tokens):
    """Reference greedy decode: re-run the whole prefix for every token."""
    c = decoder.config
    out, t0 = [], prompt
    for _ in range(max_new_tokens):
        if t0.shape[1] >= c.max_positions:
            break
        logits, _ = decoder.forward(t0, fused, gates)
        next_id = int(np.argmax(logits.data[0, -1]))
        if next_id == EOS:
            break
        out.append(next_id)
        t0 = concat([t0, decoder.embed_tokens(np.array([[next_id]]))], axis=1)
    return out


def _gate_sources(decoder, rng):
    n = decoder.config.n_layers
    fused = _fused(rng, decoder, batch=1, src_len=5)
    mask = np.ones((1, 5), dtype=bool)
    mask[0, [1, 3]] = False
    fused.bias = padding_bias(mask)
    gates = GateVector(n)
    for g in gates.values:
        g.data[0] = rng.uniform(0.25, 0.75)
    return [(None, None), (fused, gates)]


def test_generate_matches_full_recompute(decoder, rng):
    c = decoder.config
    for fused, gates in _gate_sources(decoder, rng):
        for _ in range(4):
            prompt = _t0(rng, decoder, batch=1, length=int(rng.integers(2, 6)))
            expected = _recompute_generate(decoder, prompt, fused, gates, c.max_positions)
            assert _generate(decoder, prompt, fused, gates, c.max_positions) == expected

            # step by step: each cached step's last row is the full forward's last row
            cache, t0, step = DecodeCache(), prompt, prompt
            while t0.shape[1] < c.max_positions:
                if cache.offset:
                    cache = cache.row(0, c.max_positions)
                cached, _ = decoder.forward(step, fused, gates, cache=cache)
                full, _ = decoder.forward(t0, fused, gates)
                np.testing.assert_allclose(cached.data[0, -1], full.data[0, -1], rtol=0, atol=1e-5)
                step = decoder.embed_tokens(np.array([[int(np.argmax(full.data[0, -1]))]]))
                t0 = concat([t0, step], axis=1)
            assert cache.offset == c.max_positions - 1


def test_generate_keeps_its_pinned_ids():
    """Greedy ids at the benchmark widths under open gates, pinned from the
    decoder that ran the head on the prompt's last two positions by
    narrowing, before the head took a row selection: prompts of 1, 2, 3 and
    7 positions."""
    decoder = Decoder(DecoderConfig(), seed=3)
    c = decoder.config
    rng = np.random.default_rng(31)
    mask = np.ones((1, 5), dtype=bool)
    mask[0, 3:] = False
    memories = [Tensor(rng.normal(0, 1, size=(1, 5, c.d_dec)).astype(np.float32)) for _ in range(c.n_layers)]
    fused = decoder.project(FusedKV(memories=memories, bias=padding_bias(mask)))
    gates = GateVector(c.n_layers)
    for g in gates.values:
        g.data[0] = rng.uniform(0.25, 0.75)
    got = []
    for length in (1, 2, 3, 7):
        prompt = decoder.embed_tokens(rng.integers(4, c.vocab_size, size=(1, length)))
        got.append(_generate(decoder, prompt, fused, gates, 8))
    assert got == [
        [376, 17, 17, 17, 274, 304, 304, 304],
        [4, 4, 366, 369, 179, 460, 35, 118],
        [66, 66, 152, 349, 349, 35, 274, 163],
        [384, 157, 157, 400, 157, 400, 157, 101],
    ]


def test_generate_is_deterministic(decoder, rng):
    prompt_tokens = rng.integers(4, 32, size=(1, 3))
    a = _generate(decoder, decoder.embed_tokens(prompt_tokens), None, None, max_new_tokens=6)
    b = _generate(decoder, decoder.embed_tokens(prompt_tokens), None, None, max_new_tokens=6)
    assert a == b


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_decoder_config_validation():
    with pytest.raises(ConfigError):
        DecoderConfig(d_dec=30, n_heads=4)
    with pytest.raises(ConfigError, match="cannot hold the 4 special ids"):
        DecoderConfig(vocab_size=3)
    DecoderConfig(vocab_size=4)


def test_layer_count_mismatch_between_fused_and_decoder(decoder, rng):
    t0 = _t0(rng, decoder)
    fused = FusedKV(
        memories=[Tensor(np.zeros((2, 3, 16), dtype=np.float32))], bias=padding_bias(np.ones((2, 3), dtype=bool))
    )
    with pytest.raises(ConfigError, match="1 layers"):
        decoder.forward(t0, fused, GateVector(decoder.config.n_layers))


def test_fused_kv_needs_a_gate_source(decoder, rng):
    t0 = _t0(rng, decoder)
    with pytest.raises(ConfigError, match="needs a gate source"):
        decoder.forward(t0, _fused(rng, decoder), None)


def test_fused_kv_needs_its_memories_projected(decoder, rng):
    t0 = _t0(rng, decoder)
    unprojected = dataclasses.replace(_fused(rng, decoder), kv=None)
    with pytest.raises(ContractError, match="Decoder.project"):
        decoder.forward(t0, unprojected, GateVector(decoder.config.n_layers))
