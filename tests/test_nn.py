"""The fused pre-norm sublayers of the frozen stack: gradients against
central differences, and forward and backward bits against the chains of
single tape ops they replace (``conftest.chain_attention_sublayer`` and
``conftest.chain_feed_forward``)."""

import numpy as np
import pytest

from conftest import (
    assert_grad_matches,
    chain_attention_sublayer,
    chain_feed_forward,
    total,
    use_chain_sublayers,
)
from layerbridge.autodiff import Tape, Tensor, backward, mul
from layerbridge.bridge import FusedKV
from layerbridge.decoder import DecodeCache, Decoder, DecoderConfig, GateVector
from layerbridge.encoder import Encoder, EncoderConfig
from layerbridge.errors import ShapeError
from layerbridge.nn import attention_sublayer, causal_bias, feed_forward, init_layer, padding_bias

INPUTS = ("x", "memory_k", "memory_v", "gate")


def _layer(rng, d, dtype):
    return {name: Tensor(w.data.astype(dtype)) for name, w in init_layer(rng, d, 2 * d).items()}


def _case(rng, form, batch=2, s=4, d=8, dtype=np.float64):
    """(layer, inputs, kwargs) for ``attention_sublayer``. The decoder form
    attends causally and reads a memory with two padded keys under a gate;
    the encoder form has a key-padding bias and no memory. ``inputs`` maps
    each of ``INPUTS`` the form takes to its tensor, all requiring grad."""
    layer = _layer(rng, d, dtype)

    def tensor(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    inputs = {"x": tensor(batch, s, d)}
    if form == "encoder":
        valid = np.ones((batch, s), dtype=bool)
        valid[0, -2:] = False
        return layer, inputs, {"bias": padding_bias(valid)}
    valid = np.ones((batch, s + 1), dtype=bool)
    valid[0, -2:] = False
    inputs.update(memory_k=tensor(batch, s + 1, d), memory_v=tensor(batch, s + 1, d))
    inputs["gate"] = Tensor(np.array([0.7], dtype=dtype), requires_grad=True)
    kwargs = {"bias": causal_bias(s), "key_bias": padding_bias(valid)}
    return layer, inputs, kwargs


def _call(fn, layer, inputs, kwargs, n_heads):
    if "gate" in inputs:
        cross = (inputs["memory_k"], inputs["memory_v"], inputs["gate"], kwargs["key_bias"])
        return fn(layer, inputs["x"], n_heads, kwargs["bias"], cross=cross)
    return fn(layer, inputs["x"], n_heads, **kwargs)


@pytest.mark.parametrize("which", INPUTS)
def test_attention_sublayer_gradient_of_each_input_alone(rng, which):
    layer, inputs, kwargs = _case(rng, "decoder")
    for name, t in inputs.items():
        t.requires_grad = name == which
    r = Tensor(rng.normal(size=inputs["x"].shape))
    assert_grad_matches(lambda: total(mul(_call(attention_sublayer, layer, inputs, kwargs, 2)[0], r)),
                        [inputs[which]])
    assert [name for name, t in inputs.items() if t.grad is not None] == [which]


@pytest.mark.parametrize("form", ["decoder", "encoder"])
def test_attention_sublayer_gradients_of_every_input_at_once(rng, form):
    layer, inputs, kwargs = _case(rng, form)
    r = Tensor(rng.normal(size=inputs["x"].shape))
    assert_grad_matches(lambda: total(mul(_call(attention_sublayer, layer, inputs, kwargs, 2)[0], r)),
                        list(inputs.values()))


def test_feed_forward_gradient(rng):
    layer = _layer(rng, 8, np.float64)
    x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
    r = Tensor(rng.normal(size=x.shape))
    assert_grad_matches(lambda: total(mul(feed_forward(layer, x), r)), [x])


def _outputs_and_grads(run, inputs: dict, r: Tensor) -> list[np.ndarray]:
    """Every output of ``run()`` and the gradient of sum(out * r) for each input."""
    for t in inputs.values():
        t.grad = None
    with Tape() as tape:
        outs = run()
        loss = total(mul(outs[0], r))
    backward(tape, loss)
    return [o.data for o in outs if o is not None] + [t.grad for t in inputs.values() if t.requires_grad]


@pytest.mark.parametrize("form, x_needs_grad", [("decoder", True), ("decoder", False), ("encoder", True)])
@pytest.mark.parametrize("batch", [1, 32])
def test_attention_sublayer_matches_op_chain_bitwise(rng, form, x_needs_grad, batch):
    """Outputs and input gradients; without ``x``'s gradient only the memory
    and the gate are differentiated, as in a decoder whose input is frozen."""
    # benchmark widths: d_dec 128 over 4 heads
    layer, inputs, kwargs = _case(rng, form, batch=batch, s=9, d=128, dtype=np.float32)
    inputs["x"].requires_grad = x_needs_grad
    r = Tensor(rng.normal(size=inputs["x"].shape).astype(np.float32))
    got = _outputs_and_grads(lambda: _call(attention_sublayer, layer, inputs, kwargs, 4), inputs, r)
    want = _outputs_and_grads(lambda: _call(chain_attention_sublayer, layer, inputs, kwargs, 4), inputs, r)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float32
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("batch", [1, 32])
def test_feed_forward_matches_op_chain_bitwise(rng, batch):
    layer = _layer(rng, 128, np.float32)
    inputs = {"x": Tensor(rng.normal(size=(batch, 9, 128)).astype(np.float32), requires_grad=True)}
    r = Tensor(rng.normal(size=inputs["x"].shape).astype(np.float32))
    got = _outputs_and_grads(lambda: (feed_forward(layer, inputs["x"]),), inputs, r)
    want = _outputs_and_grads(lambda: (chain_feed_forward(layer, inputs["x"]),), inputs, r)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_each_sublayer_records_one_tape_entry(rng):
    layer, inputs, kwargs = _case(rng, "decoder")
    with Tape() as tape:
        out, _, _ = _call(attention_sublayer, layer, inputs, kwargs, 2)
        feed_forward(layer, out)
    assert len(tape.entries) == 2
    for t in inputs.values():
        t.requires_grad = False
    with Tape() as tape:
        out, _, _ = _call(attention_sublayer, layer, inputs, kwargs, 2)
        feed_forward(layer, out)
    assert tape.entries == []


def test_attention_sublayer_rejects_width_not_divisible_by_heads(rng):
    layer, inputs, kwargs = _case(rng, "encoder")
    with pytest.raises(ShapeError, match="not divisible by 3 heads"):
        _call(attention_sublayer, layer, inputs, kwargs, 3)


# ---------------------------------------------------------------------------
# whole stacks at the benchmark widths, fused against the chains
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def decoder():
    return Decoder(DecoderConfig(), seed=3)


def _bridge(rng, decoder, batch, src_len=7):
    valid = np.ones((batch, src_len), dtype=bool)
    valid[0, -3:] = False
    memories = [Tensor(rng.normal(size=(batch, src_len, decoder.config.d_dec)).astype(np.float32))
                for _ in range(decoder.config.n_layers)]
    gates = GateVector(decoder.config.n_layers)
    for g in gates.values:
        g.data[0] = rng.uniform(0.25, 0.75)
    return FusedKV(memories=memories, bias=padding_bias(valid)), gates


def _forward_bits(logits, state) -> list[np.ndarray]:
    return [logits.data] + [t.data for t in (*state.states, *state.sa_outputs, *state.ca_outputs)]


def test_decoder_forward_matches_op_chain_bitwise(decoder, rng, monkeypatch):
    t0 = decoder.embed_tokens(rng.integers(4, 512, size=(32, 14)))
    fused, gates = _bridge(rng, decoder, 32)
    got = _forward_bits(*decoder.forward(t0, fused, gates))
    calls = use_chain_sublayers(monkeypatch)
    want = _forward_bits(*decoder.forward(t0, fused, gates))
    assert calls == {"attention": 4, "feed_forward": 4}
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_cached_decode_matches_op_chain_bitwise(decoder, rng, monkeypatch):
    """Batch 1 through a ``DecodeCache``: the prompt, then three steps."""
    prompt = decoder.embed_tokens(rng.integers(4, 512, size=(1, 10)))
    steps = [decoder.embed_tokens(rng.integers(4, 512, size=(1, 1))) for _ in range(3)]
    fused, gates = _bridge(rng, decoder, 1)

    def decode():
        cache, bits = DecodeCache(), []
        for t0 in (prompt, *steps):
            bits += _forward_bits(*decoder.forward(t0, fused, gates, cache=cache))
        end = cache.offset
        return bits + [buf[:, :end] for kv in cache.self_kv.values() for buf in kv]

    got = decode()
    calls = use_chain_sublayers(monkeypatch)
    want = decode()
    assert calls == {"attention": 16, "feed_forward": 16}
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_encoder_forward_matches_op_chain_bitwise(rng, monkeypatch):
    encoder = Encoder(EncoderConfig(), seed=3)
    tokens = rng.integers(4, 512, size=(32, 11))
    mask = np.arange(11) < rng.integers(1, 12, size=32)[:, None]
    got = encoder.forward(tokens, mask).states
    calls = use_chain_sublayers(monkeypatch)
    want = encoder.forward(tokens, mask).states
    assert calls == {"attention": 6, "feed_forward": 6}
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
