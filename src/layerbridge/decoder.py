"""Frozen causal decoder whose attention adds gate-scaled cross-attention.

Every layer computes self-attention over the running sequence plus a
cross-attention read of that layer's fused encoder representation, both
through the same frozen projection weights, summed as SA + g * CA before
re-entering the residual stream. Gates start at exactly zero, so an
untrained model is indistinguishable from the plain decoder; training moves
only the gates (and bridge parameters), never the decoder weights.

Greedy decoding runs the same forward pass through a ``DecodeCache``: the
prompt once, then one position per emitted token.

The init scales ``EMB_SCALE``, ``POS_SCALE`` and ``HEAD_SCALE`` are module
constants, and the special token ids are ``data``'s ``PAD``, ``BOS``,
``SEP`` and ``EOS``: the frozen stand-in and its vocabulary layout are fixed,
not experimental variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bridge import FusedKV
from .data import EOS, SPECIAL_TOKENS
from .errors import ConfigError, ContractError, NumericError
from .nn import Linear, attention, causal_bias, feed_forward, init_layer, padding_bias, self_attention

# frozen stand-in init scales; see encoder.EMB_SCALE for the rationale
EMB_SCALE = 0.5
POS_SCALE = 0.3
# head columns need unit-order norms: after the final layer norm the
# hidden state has norm ~sqrt(d_dec), and confident predictions need
# peak logits well above log(vocab), which glorot columns cannot reach
HEAD_SCALE = 1.5


@dataclass(frozen=True)
class DecoderConfig:
    vocab_size: int = 512
    d_dec: int = 128
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 256
    max_positions: int = 96

    def __post_init__(self):
        for name in ("vocab_size", "d_dec", "n_layers", "n_heads", "d_ff", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"decoder {name} must be positive, got {getattr(self, name)}")
        if self.d_dec % self.n_heads:
            raise ConfigError(f"d_dec {self.d_dec} not divisible by {self.n_heads} heads")
        if self.vocab_size < len(SPECIAL_TOKENS):
            raise ConfigError(
                f"decoder vocab_size {self.vocab_size} cannot hold the {len(SPECIAL_TOKENS)} special ids"
            )


class GateVector:
    """One learnable scalar per decoder layer, initialized to exactly zero."""

    def __init__(self, n_layers: int):
        self.values = [
            Tensor(np.zeros(1, dtype=np.float32), requires_grad=True) for _ in range(n_layers)
        ]

    def named_params(self, prefix: str = "gates") -> dict[str, Tensor]:
        return {f"{prefix}.layer{i + 1}": g for i, g in enumerate(self.values)}

    def snapshot(self) -> list[float]:
        return [float(g.data[0]) for g in self.values]


@dataclass
class DecoderState:
    """Forward-pass record: hidden sequences T_0..T_m and, per layer, the
    self-attention output and the ungated cross-attention output (``None``
    where the layer read no memory)."""

    states: list[Tensor]
    sa_outputs: list[Tensor] = field(default_factory=list)
    ca_outputs: list[Tensor | None] = field(default_factory=list)


@dataclass
class DecodeCache:
    """What one greedy decode carries from step to step, keyed by 1-based layer.

    ``self_kv`` holds each layer's self-attention key and value buffers,
    [1, max_positions, d_dec] each, before the head split. The prompt call
    allocates them; every call writes its positions' keys and values into
    rows ``offset`` to ``offset + n`` in place, and attention reads rows
    ``:offset + n`` as views, so a step copies only its own row.
    ``cross_kv`` holds each layer's fused memory projected through ``wk`` and
    ``wv``; it is filled on the first call and reused after, so every call
    sharing a cache must pass the same ``FusedKV``. ``offset`` is the number
    of positions fed so far.
    """

    self_kv: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    cross_kv: dict[int, tuple[Tensor, Tensor]] = field(default_factory=dict)
    offset: int = 0


class Decoder:
    """Pre-norm causal transformer, random-initialized then frozen."""

    def __init__(self, config: DecoderConfig, seed: int):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDEC0]))
        c = config
        frozen = dict(requires_grad=False)
        self.tok_emb = Tensor(rng.normal(0, EMB_SCALE, size=(c.vocab_size, c.d_dec)).astype(np.float32), **frozen)
        self.pos_emb = Tensor(rng.normal(0, POS_SCALE, size=(c.max_positions, c.d_dec)).astype(np.float32), **frozen)
        self.layers = [init_layer(rng, c.d_dec, c.d_ff) for _ in range(c.n_layers)]
        self.head = Linear(rng, c.d_dec, c.vocab_size, trainable=False)
        self.head.weight.data = rng.normal(
            0, HEAD_SCALE / np.sqrt(c.d_dec), size=(c.d_dec, c.vocab_size)
        ).astype(np.float32)

    def named_params(self, prefix: str = "decoder") -> dict[str, Tensor]:
        out = {f"{prefix}.tok_emb": self.tok_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, layer in enumerate(self.layers):
            for key, tensor in layer.items():
                out[f"{prefix}.layer{i}.{key}"] = tensor
        out.update(self.head.named_params(f"{prefix}.head"))
        return out

    def token_ids(self, tokens: np.ndarray) -> np.ndarray:
        """``tokens`` as int64, each checked to index a row of ``tok_emb``."""
        idx = np.asarray(tokens, dtype=np.int64)
        bad = (idx < 0) | (idx >= self.config.vocab_size)
        if bad.any():
            pos = tuple(map(int, np.argwhere(bad)[0]))
            raise ConfigError(f"token id {idx[pos]} at {pos} outside decoder vocab")
        return idx

    def embed_tokens(self, tokens: np.ndarray) -> Tensor:
        """Frozen embedding lookup, [batch, length, d_dec]."""
        return Tensor(self.tok_emb.data[self.token_ids(tokens)])

    def forward(
        self,
        t0: Tensor,
        fused: FusedKV | None,
        gates: GateVector | None,
        valid: np.ndarray | None = None,
        cache: DecodeCache | None = None,
    ) -> tuple[Tensor, DecoderState]:
        """Run all layers and the output head. Returns (logits, state).

        ``fused=None`` removes cross-attention entirely (self-attention-only
        decoder) and leaves ``gates`` unread; with ``fused`` present,
        ``gates`` scales each layer's CA read.

        With a ``cache``, ``t0`` continues the single sequence the cache holds:
        positions start at ``cache.offset``, and the call writes its keys and
        values into the cache's buffers. The first call feeds the whole prompt
        causally; every later call feeds one position, which sees every
        cached key. The buffers are written in place, so no tape may record
        a cached forward of a grad-requiring ``t0``.

        Raises ``NumericError`` naming the first layer whose output holds a
        non-finite value.
        """
        c = self.config
        batch, dec_len, d = t0.shape
        offset = 0 if cache is None else cache.offset
        if d != c.d_dec:
            raise ConfigError(f"T_0 width {d} != d_dec {c.d_dec}")
        if offset + dec_len > c.max_positions:
            raise ConfigError(
                f"sequence length {offset + dec_len} exceeds max_positions {c.max_positions}"
            )
        if cache is not None:
            if batch != 1 or (offset and dec_len != 1):
                raise ContractError(f"a cached step feeds one position of one sequence, got {batch}x{dec_len}")
            if t0.requires_grad and ad.active_tape() is not None:
                raise ContractError("a cached forward overwrites its buffers in place, so no tape may record it")
            if not offset:
                shape = (1, c.max_positions, d)
                cache.self_kv = {
                    i: (np.empty(shape, t0.dtype), np.empty(shape, t0.dtype)) for i in range(1, c.n_layers + 1)
                }
        if fused is not None:
            if fused.n_layers != c.n_layers:
                raise ConfigError(
                    f"fused K/V carries {fused.n_layers} layers, decoder has {c.n_layers}"
                )
            if gates is None:
                raise ConfigError("fused K/V needs a gate source")
        if valid is None:
            valid = np.ones((batch, dec_len), dtype=bool)
        sa_bias = None if offset else causal_bias(dec_len) + padding_bias(valid)

        x = ad.add(t0, Tensor(self.pos_emb.data[offset : offset + dec_len][None]))
        state = DecoderState(states=[t0])
        for i in range(1, c.n_layers + 1):
            x, sa, ca = self.block(i, x, sa_bias, fused, gates, cache)
            state.states.append(x)
            state.sa_outputs.append(sa)
            state.ca_outputs.append(ca)
        if cache is not None:
            cache.offset += dec_len
        return self.head(ad.layer_norm(x)), state

    def block(
        self,
        index: int,
        x: Tensor,
        sa_bias: np.ndarray | None,
        fused: FusedKV | None,
        gates: GateVector | None,
        cache: DecodeCache | None = None,
    ) -> tuple[Tensor, Tensor, Tensor | None]:
        """One gated block (1-based ``index``): x + SA + g * CA, then the FFN.

        Returns (block output, SA output, ungated CA output).
        Cross-attention reads ``fused.memories[index - 1]`` through the layer's
        own ``wk`` and ``wv``, reusing the self-attention queries, with
        ``fused.bias`` hiding padded keys; with ``fused=None`` the block is
        self-attention only and the CA output is ``None``. A
        ``cache`` supplies and collects this layer's keys and values (see
        ``DecodeCache``).
        """
        layer = self.layers[index - 1]
        kv, offset = (None, 0) if cache is None else (cache.self_kv[index], cache.offset)
        sa, q = self_attention(layer, x, self.config.n_heads, sa_bias, kv, offset)
        if fused is not None:
            memory = None if cache is None else cache.cross_kv.get(index)
            if memory is None:
                h = fused.memories[index - 1]
                memory = (ad.matmul(h, layer["wk"]), ad.matmul(h, layer["wv"]))
                if cache is not None:
                    cache.cross_kv[index] = memory
            ca = ad.matmul(
                attention(q, *memory, self.config.n_heads, bias=fused.bias),
                layer["wo"],
            )
            gated = ad.mul(ca, gates.values[index - 1])
            out = ad.add(ad.add(x, sa), gated)
        else:
            out, ca = ad.add(x, sa), None
        out = feed_forward(layer, out)
        if not np.isfinite(out.data).all():
            raise NumericError(f"non-finite activations leaving decoder layer {index}")
        return out, sa, ca


def generate(
    decoder: Decoder,
    prompt: Tensor,
    fused: FusedKV | None,
    gates: GateVector | None,
    max_new_tokens: int,
) -> list[int]:
    """Greedy decoding from an assembled prompt [1, P, d_dec].

    Feeds the prompt once, then only each emitted token's embedding, through
    a ``DecodeCache`` that keeps every layer's self-attention keys and values
    and its projected cross-attention memory. Stops at the end marker, at the
    budget, or when the sequence length reaches ``max_positions``; the end
    marker itself is not returned.
    """
    if max_new_tokens < 1:
        raise ContractError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    if prompt.shape[0] != 1:
        raise ContractError(f"generate works on a single sequence, got batch {prompt.shape[0]}")
    c = decoder.config
    cache = DecodeCache()
    out: list[int] = []
    t0 = prompt
    for _ in range(max_new_tokens):
        if cache.offset + t0.shape[1] >= c.max_positions:
            break
        logits, _ = decoder.forward(t0, fused, gates, cache=cache)
        next_id = int(np.argmax(logits.data[0, -1]))
        if next_id == EOS:
            break
        out.append(next_id)
        t0 = decoder.embed_tokens(np.array([[next_id]]))
    return out
