"""Frozen bidirectional transformer encoder exposing every layer's states.

The encoder stands in for a large pretrained multilingual model: weights are
random, seed-pinned, and never trained. It is an ``nn.FrozenStack``, so it
shares its embeddings, layer layout and input checks with the decoder, and
forward runs the shared sublayers (``nn.self_attention`` and
``nn.feed_forward``); no weight requires grad, so those ops record nothing
and run as plain numpy. The returned states are marked read-only so
downstream code cannot mutate what the frozen contract checksums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, InputError
from .nn import FrozenStack, feed_forward, padding_bias, self_attention


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


class Encoder(FrozenStack):
    """Pre-norm encoder; H_0 is token+position embeddings, H_i the output of
    layer i with no extra final normalization."""

    def __init__(self, config: EncoderConfig, seed: int):
        self.config = c = config
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE11C]))
        super().__init__(rng, c.vocab_size, c.d_enc, c.n_layers, c.d_ff, c.max_positions)

    def forward(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> LayerStack:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise InputError(f"encoder tokens must be [batch, src_len], got shape {tokens.shape}")
        batch, src_len = tokens.shape
        positions = self.positions(0, src_len)
        h = Tensor(self.embed_tokens(tokens).data + positions)
        if mask is None:
            mask = np.ones((batch, src_len), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != tokens.shape:
                raise InputError(f"mask shape {mask.shape} != tokens shape {tokens.shape}")

        # key-side padding bias: pads never attend into real positions
        key_bias = padding_bias(mask)
        states = [h.data]
        for layer in self.layers:
            attended, _ = self_attention(layer, h, self.config.n_heads, key_bias)
            h = feed_forward(layer, ad.add(h, attended))
            states.append(h.data)
        return LayerStack(states=states, mask=mask)
