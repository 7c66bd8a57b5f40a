"""Frozen causal decoder whose attention adds gate-scaled cross-attention.

Every layer computes self-attention over the running sequence plus a
cross-attention read of that layer's fused encoder representation, both
through the same frozen projection weights, summed as SA + g * CA before
re-entering the residual stream. Gates start at exactly zero, so an
untrained model is indistinguishable from the plain decoder; training moves
only the gates (and bridge parameters), never the decoder weights.

Each layer is two tape entries, ``nn.attention_sublayer`` (x + SA + g * CA)
and ``nn.feed_forward``, plus the two projections of its memory through
``wk`` and ``wv``. Greedy decoding runs the same forward pass through a
``DecodeCache``: the prompt once, then one position per emitted token.

The decoder is an ``nn.FrozenStack`` plus an output head. The head's init
scale ``HEAD_SCALE`` is a module constant (the embedding scales are
``nn``'s), and the special token ids are ``data``'s ``PAD``, ``BOS``,
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
from .nn import FrozenStack, attention_sublayer, causal_bias, feed_forward, glorot
from .nn import attention  # noqa: F401 -- the benchmark times attention under this name

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
    where the layer read no memory). The hidden states are on the tape; the
    SA and CA outputs are records off it, so a loss on them gets no
    gradient."""

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


class Decoder(FrozenStack):
    """Pre-norm causal transformer, random-initialized then frozen."""

    def __init__(self, config: DecoderConfig, seed: int):
        self.config = c = config
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDEC0]))
        super().__init__(rng, c.vocab_size, c.d_dec, c.n_layers, c.d_ff, c.max_positions)
        # this glorot draw is discarded, but it stays in the RNG stream that
        # the head's own draw follows
        glorot(rng, c.d_dec, c.vocab_size)
        self.head = Tensor(
            rng.normal(0, HEAD_SCALE / np.sqrt(c.d_dec), size=(c.d_dec, c.vocab_size)).astype(np.float32)
        )

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {**super().named_params(prefix), f"{prefix}.head.weight": self.head}

    def forward(
        self,
        t0: Tensor,
        fused: FusedKV | None,
        gates: GateVector | None,
        cache: DecodeCache | None = None,
        rows: np.ndarray | None = None,
    ) -> tuple[Tensor, DecoderState]:
        """Run all layers and the output head. Returns (logits, state).

        ``rows`` selects the flat [batch * length] positions whose logits are
        wanted: the final norm and the head run on those rows alone, and the
        logits are [len(rows), vocab]. By default every position gets them,
        as [batch, length, vocab]. A row's logits have the same bits either
        way, except in a one-row selection: a one-row head product can round
        differently from the same row of a larger one.

        ``fused=None`` removes cross-attention entirely (self-attention-only
        decoder) and leaves ``gates`` unread; with ``fused`` present,
        ``gates`` scales each layer's CA read.

        Self-attention is masked only causally: rows are right-padded, so no
        real query reaches a pad key.

        With a ``cache``, ``t0`` continues the single sequence the cache holds:
        positions start at ``cache.offset``, and the call writes its keys and
        values into the cache's buffers. The first call feeds the whole prompt
        causally; every later call feeds one position, which sees every
        cached key. The buffers are written in place, so no tape may record
        a cached forward of a grad-requiring ``t0``.

        Raises ``InputError`` when the positions run past ``max_positions``,
        and ``NumericError`` naming the first layer whose output holds a
        non-finite value.
        """
        c = self.config
        batch, dec_len, d = t0.shape
        offset = 0 if cache is None else cache.offset
        if d != c.d_dec:
            raise ConfigError(f"T_0 width {d} != d_dec {c.d_dec}")
        positions = self.positions(offset, dec_len)
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
        sa_bias = None if offset else causal_bias(dec_len)

        x = ad.add(t0, Tensor(positions))
        state = DecoderState(states=[t0])
        for i in range(1, c.n_layers + 1):
            x, sa, ca = self.block(i, x, sa_bias, fused, gates, cache)
            state.states.append(x)
            state.sa_outputs.append(sa)
            state.ca_outputs.append(ca)
        if cache is not None:
            cache.offset += dec_len
        if rows is not None:
            x = ad.embedding(ad.reshape(x, (batch * dec_len, d)), rows)
        return ad.matmul(ad.layer_norm(x), self.head), state

    def block(
        self,
        index: int,
        x: Tensor,
        sa_bias: np.ndarray | None,
        fused: FusedKV | None,
        gates: GateVector | None,
        cache: DecodeCache | None = None,
    ) -> tuple[Tensor, Tensor, Tensor | None]:
        """One gated block (1-based ``index``): x + SA + g * CA, then the FFN,
        as two tape entries (``nn.attention_sublayer``, ``nn.feed_forward``).

        Returns (block output, SA output, ungated CA output).
        Cross-attention reads ``fused.memories[index - 1]``, projected here
        through the layer's own ``wk`` and ``wv``, reusing the self-attention
        queries, with ``fused.bias`` hiding padded keys; with ``fused=None``
        the block is self-attention only and the CA output is ``None``. A
        ``cache`` supplies and collects this layer's keys and values (see
        ``DecodeCache``).
        """
        layer = self.layers[index - 1]
        kv, offset = (None, 0) if cache is None else (cache.self_kv[index], cache.offset)
        cross = None
        if fused is not None:
            memory = None if cache is None else cache.cross_kv.get(index)
            if memory is None:
                h = fused.memories[index - 1]
                memory = (ad.matmul(h, layer["wk"]), ad.matmul(h, layer["wv"]))
                if cache is not None:
                    cache.cross_kv[index] = memory
            cross = (*memory, gates.values[index - 1], fused.bias)
        out, sa, ca = attention_sublayer(layer, x, self.config.n_heads, sa_bias, kv, offset, cross)
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
    and its projected cross-attention memory. The head runs on at most the
    prompt's last two positions, not its last one, so the last row keeps
    the bits of the uncached forward's, and then on each step's one
    position. Stops at the end marker, at the budget, or when the sequence
    length reaches ``max_positions``; the end marker itself is not
    returned.
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
        n = t0.shape[1]
        rows = None if n <= 2 else np.arange(n - 2, n)
        logits, _ = decoder.forward(t0, fused, gates, cache=cache, rows=rows)
        next_id = int(logits.data.reshape(-1, c.vocab_size)[-1].argmax())
        if next_id == EOS:
            break
        out.append(next_id)
        # an argmax over the head's columns is a row of tok_emb, so the id
        # needs none of embed_tokens' checks
        t0 = Tensor(decoder.tok_emb.data[next_id][None, None])
    return out
