"""Frozen bidirectional transformer encoder exposing every layer's states.

The encoder stands in for a large pretrained multilingual model: weights are
random, seed-pinned, and never trained. Forward runs the layer code shared
with the decoder (``nn.self_attention`` and ``nn.feed_forward``); no weight
requires grad, so those ops record nothing and run as plain numpy. The
returned states are marked read-only so downstream code cannot mutate what
the frozen contract checksums.

The init scales ``EMB_SCALE`` and ``POS_SCALE`` are module constants, not
config: the stand-in is fixed, so they are not an experimental variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, InputError
from .nn import feed_forward, init_layer, padding_bias, self_attention

# init scales of the frozen stand-in weights; position needs to be well
# represented in the states or downstream alignment cannot route by it
EMB_SCALE = 0.5
POS_SCALE = 0.3


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = 512
    d_enc: int = 64
    n_layers: int = 6
    n_heads: int = 4
    d_ff: int = 128
    max_positions: int = 64

    def __post_init__(self):
        for name in ("vocab_size", "d_enc", "n_layers", "n_heads", "d_ff", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"encoder {name} must be positive, got {getattr(self, name)}")
        if self.d_enc % self.n_heads:
            raise ConfigError(f"d_enc {self.d_enc} not divisible by {self.n_heads} heads")


@dataclass
class LayerStack:
    """All n+1 encoder states for one batch: index 0 is the embedding output,
    index i the output of layer i. Arrays are read-only; the source mask marks
    real (non-pad) positions."""

    states: list[np.ndarray]
    mask: np.ndarray

    def __post_init__(self):
        first = self.states[0].shape
        for i, h in enumerate(self.states):
            if h.shape != first:
                raise ContractError(f"layer state {i} shape {h.shape} != {first}")
            h.flags.writeable = False
        self.mask = np.asarray(self.mask, dtype=bool)
        self.mask.flags.writeable = False

    @property
    def n_layers(self) -> int:
        return len(self.states) - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


class Encoder:
    """Pre-norm encoder; H_0 is token+position embeddings, H_i the output of
    layer i with no extra final normalization."""

    def __init__(self, config: EncoderConfig, seed: int):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE11C]))
        c = config
        frozen = dict(requires_grad=False)
        self.tok_emb = Tensor(rng.normal(0, EMB_SCALE, size=(c.vocab_size, c.d_enc)).astype(np.float32), **frozen)
        self.pos_emb = Tensor(rng.normal(0, POS_SCALE, size=(c.max_positions, c.d_enc)).astype(np.float32), **frozen)
        self.layers = [init_layer(rng, c.d_enc, c.d_ff) for _ in range(c.n_layers)]

    def named_params(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {f"{prefix}.tok_emb": self.tok_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, layer in enumerate(self.layers):
            for key, tensor in layer.items():
                out[f"{prefix}.layer{i}.{key}"] = tensor
        return out

    def forward(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> LayerStack:
        c = self.config
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise InputError(f"encoder tokens must be [batch, src_len], got shape {tokens.shape}")
        batch, src_len = tokens.shape
        if src_len > c.max_positions:
            raise InputError(f"sequence length {src_len} exceeds max_positions {c.max_positions}")
        bad = (tokens < 0) | (tokens >= c.vocab_size)
        if bad.any():
            b, s = map(int, np.argwhere(bad)[0])
            raise InputError(
                f"token id {tokens[b, s]} at batch {b}, position {s} outside vocab of {c.vocab_size}"
            )
        if mask is None:
            mask = np.ones((batch, src_len), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != tokens.shape:
                raise InputError(f"mask shape {mask.shape} != tokens shape {tokens.shape}")

        # key-side padding bias: pads never attend into real positions
        key_bias = padding_bias(mask)
        h = Tensor(self.tok_emb.data[tokens] + self.pos_emb.data[:src_len][None])
        states = [h.data]
        for layer in self.layers:
            attended, _ = self_attention(layer, h, c.n_heads, key_bias)
            h = feed_forward(layer, ad.add(h, attended))
            states.append(h.data)
        return LayerStack(states=states, mask=mask)
