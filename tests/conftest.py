"""Shared test helpers: finite-difference oracles, tiny model builders, a
tiny synthetic corpus spec and the bounded JSON values the input fuzzes
draw."""

from __future__ import annotations

import collections
import errno
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from layerbridge import decoder as decoder_module
from layerbridge import encoder as encoder_module
from layerbridge import nn
from layerbridge.autodiff import (
    Tape, Tensor, add, backward, cross_entropy, layer_norm, matmul, mul, relu, reshape, softmax, take,
    transpose,
)
from layerbridge.data import SynthSpec

# a three-language corpus small enough to train every benchmark arm in seconds
TINY_SPEC = SynthSpec(
    vocab_size=64,
    stage1_per_hrl=24,
    lrl_fraction=0.25,
    stage2_per_lang=8,
    eval_per_lang=4,
    parallel_sentences=4,
    active_words=12,
    sentence_max_words=4,
    copy_max_words=2,
    tasks=("arithmetic", "copy", "classification"),
)


def total(x: Tensor) -> Tensor:
    """Sum of every element of ``x`` as a [1, 1] tensor, by one matmul of the
    flattened ``x`` against a ones column: a scalar loss for tests."""
    return matmul(reshape(x, (1, x.size)), Tensor(np.ones((x.size, 1), dtype=x.dtype)))


def chain_matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``autodiff.matmul`` with its bias added by a separate ``add`` tape op:
    the reference for the bits of a biased projection."""
    out = matmul(a, b)
    return out if bias is None else add(out, bias)


def chain_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, bias=None) -> Tensor:
    """``nn.attention`` as the chain of tape ops it fuses (head split, scaled
    scores, bias, softmax, weighted sum of values, head merge): the
    reference for its bits."""

    def split(x):
        b, s, d = x.shape
        return transpose(reshape(x, (b, s, n_heads, d // n_heads)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = mul(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(qh.shape[-1]))
    if bias is not None:
        scores = add(scores, Tensor(np.asarray(bias, dtype=scores.data.dtype)))
    out = matmul(softmax(scores, axis=-1), vh)
    b, h, s, dh = out.shape
    return reshape(transpose(out, (0, 2, 1, 3)), (b, s, h * dh))


def chain_attention_sublayer(layer, x: Tensor, n_heads: int, bias, kv=None, offset: int = 0, cross=None):
    """``nn.attention_sublayer`` as the chain of tape ops it fuses (layer
    norm, the q/k/v projections, ``nn.attention``, the ``wo`` projection, the
    gated cross-attention read and the residual adds): the reference for its
    bits. ``nn.attention`` is looked up at each call, so a test can swap in
    ``chain_attention``."""
    normed = layer_norm(x)
    q = matmul(normed, layer["wq"])
    k = matmul(normed, layer["wk"])
    v = matmul(normed, layer["wv"])
    if kv is not None:
        end = offset + x.shape[1]
        kv[0][:, offset:end] = k.data
        kv[1][:, offset:end] = v.data
        k, v = Tensor(kv[0][:, :end]), Tensor(kv[1][:, :end])
    sa = matmul(nn.attention(q, k, v, n_heads, bias), layer["wo"])
    if cross is None:
        return add(x, sa), sa, None
    mem_k, mem_v, gate, key_bias = cross
    ca = matmul(nn.attention(q, mem_k, mem_v, n_heads, key_bias), layer["wo"])
    return add(add(x, sa), mul(ca, gate)), sa, ca


def chain_feed_forward(layer, x: Tensor) -> Tensor:
    """``nn.feed_forward`` as the chain of tape ops it fuses: the reference
    for its bits."""
    hidden = relu(matmul(layer_norm(x), layer["ff1_w"]))
    return add(x, matmul(hidden, layer["ff2_w"]))


def all_rows_loss_on_batch(model, stage: str, srcs, tgts) -> Tensor:
    """``BridgedModel.loss_on_batch`` with the final norm and the head run on
    every packed position and the supervised rows taken from those logits
    afterwards: the reference for the bits of a head run on the supervised
    positions alone."""
    logits, _, packed = model.forward_batch(stage, srcs, tgts)
    batch, width, vocab = logits.shape
    mask = packed.loss_mask.reshape(-1)
    kept = take(reshape(logits, (batch * width, vocab)), np.flatnonzero(mask), axis=0)
    return cross_entropy(kept, packed.labels.reshape(-1), mask)


def use_chain_sublayers(monkeypatch) -> collections.Counter:
    """Run the frozen encoder and decoder through ``chain_attention_sublayer``
    and ``chain_feed_forward``. Returns the count of calls each chain gets,
    so a test can show that the patch is reached."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (nn, encoder_module, decoder_module):
        monkeypatch.setattr(module, "attention_sublayer", counted("attention", chain_attention_sublayer))
        monkeypatch.setattr(module, "feed_forward", counted("feed_forward", chain_feed_forward))
    return calls


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


# any JSON value, small enough that no draw asks for a huge vocabulary or split
_JSON_SCALARS = st.one_of(
    st.integers(-3, 12),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
