"""Frozen causal decoder whose attention adds gate-scaled cross-attention.

Every layer computes self-attention over the running sequence plus a
cross-attention read of that layer's fused encoder representation, both
through the same frozen projection weights, summed as SA + g * CA before
re-entering the residual stream. Gates start at exactly zero, so an
untrained model is indistinguishable from the plain decoder; training moves
only the gates (and bridge parameters), never the decoder weights.

Each layer is two tape entries, ``nn.attention_sublayer`` (x + SA + g * CA)
and ``nn.feed_forward``, plus the two projections of its memory through
``wk`` and ``wv`` unless the ``FusedKV`` carries them (``Decoder.project``).
Greedy decoding runs the same forward pass through a ``DecodeCache``: a
``Prefill`` feeds groups of equal-length prompts a few rows per forward, and
``generate`` then feeds one row's emitted tokens one position at a time.

The decoder is an ``nn.FrozenStack`` plus an output head. The head's init
scale ``HEAD_SCALE`` is a module constant (the embedding scales are
``nn``'s), and the special token ids are ``data``'s ``PAD``, ``BOS``,
``SEP`` and ``EOS``: the frozen stand-in and its vocabulary layout are fixed,
not experimental variables.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bridge import FusedKV
from .data import EOS, SPECIAL_TOKENS
from .errors import ConfigError, ContractError, NumericError
from .nn import FrozenStack, attention_sublayer, causal_bias, feed_forward, glorot
from .nn import attention  # noqa: F401 -- the benchmark times attention under this name

# rows per prefill forward: from 8 rows on, a prompt's share of the forward
# stops falling (0.23 ms for 10 positions at the benchmark widths), while
# the forward's transient arrays keep growing with its rows
PREFILL_ROWS = 8
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
    """What greedy decoding carries from step to step, keyed by 1-based layer.

    ``self_kv`` holds each layer's self-attention key and value buffers,
    [n, length, d_dec] each, before the head split; ``offset`` is the number
    of positions fed so far. The offset-0 call feeds n prompts of one length
    and allocates buffers exactly that long. Every later call feeds one
    position of one row (n = 1) and writes its key and value into position
    ``offset`` in place, so the buffers need room past the prompt: ``row``
    gives one row its own. Attention reads positions ``:offset + 1`` as
    views, so a step copies only its own position.
    """

    self_kv: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    offset: int = 0

    def row(self, r: int, length: int) -> DecodeCache:
        """Row ``r`` alone, its positions so far copied into fresh batch-1
        buffers ``length`` positions long."""
        out = DecodeCache(offset=self.offset)
        for i, pair in self.self_kv.items():
            room = []
            for buf in pair:
                grown = np.empty((1, length, buf.shape[-1]), buf.dtype)
                grown[0, : self.offset] = buf[r, : self.offset]
                room.append(grown)
            out.self_kv[i] = tuple(room)
        return out


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

    def project(self, fused: FusedKV) -> FusedKV:
        """``fused`` with ``kv`` filled: each layer's memory projected through
        that layer's ``wk`` and ``wv``, as the forward would project it."""
        return dataclasses.replace(fused, kv=[_project(layer, h) for layer, h in zip(self.layers, fused.memories)])

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

        With a ``cache``, positions start at ``cache.offset`` and the call
        writes its keys and values into the cache's buffers (see
        ``DecodeCache``). The first call feeds n equal-length prompts
        causally; every later call feeds one position of one sequence, which
        sees every cached key. The buffers are written in place, so no tape
        may record a cached forward of a grad-requiring ``t0``, and its state
        records ``t0`` alone, so a prompt pass holds no per-layer records.

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
            if offset and (batch != 1 or dec_len != 1):
                raise ContractError(f"a cached step feeds one position of one sequence, got {batch}x{dec_len}")
            if t0.requires_grad and ad.active_tape() is not None:
                raise ContractError("a cached forward overwrites its buffers in place, so no tape may record it")
            if not offset:
                shape = (batch, dec_len, d)
                cache.self_kv = {
                    i: (np.empty(shape, t0.dtype), np.empty(shape, t0.dtype)) for i in range(1, c.n_layers + 1)
                }
            elif offset >= cache.self_kv[1][0].shape[1]:
                raise ContractError(f"the cache's buffers hold {offset} positions; give the row room with row()")
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
            if cache is None:
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
        Cross-attention reads ``fused.memories[index - 1]`` through the
        layer's own ``wk`` and ``wv``, as ``fused.kv`` carries it projected or
        else projected here, reusing the self-attention queries, with
        ``fused.bias`` hiding padded keys; with ``fused=None`` the block is
        self-attention only and the CA output is ``None``. A ``cache``
        supplies and collects this layer's keys and values (see
        ``DecodeCache``).
        """
        layer = self.layers[index - 1]
        kv, offset = (None, 0) if cache is None else (cache.self_kv[index], cache.offset)
        cross = None
        if fused is not None:
            memory = _project(layer, fused.memories[index - 1]) if fused.kv is None else fused.kv[index - 1]
            cross = (*memory, gates.values[index - 1], fused.bias)
        out, sa, ca = attention_sublayer(layer, x, self.config.n_heads, sa_bias, kv, offset, cross)
        out = feed_forward(layer, out)
        if not np.isfinite(out.data).all():
            raise NumericError(f"non-finite activations leaving decoder layer {index}")
        return out, sa, ca


def _project(layer: dict[str, Tensor], memory: Tensor) -> tuple[Tensor, Tensor]:
    return ad.matmul(memory, layer["wk"]), ad.matmul(memory, layer["wv"])


class PromptRow(NamedTuple):
    """One prompt queued in a ``Prefill``: its group and its row in it."""

    prefill: Prefill
    group: int
    row: int


class Prefill:
    """Groups of equal-length prompts whose prompt pass runs as one batch,
    when ``generate`` first takes one of their rows, so that row carries the
    whole batch's prompt work.

    ``add`` queues a group: n assembled prompts of one length, [n, P,
    d_dec], with their ``FusedKV``, which should have been through
    ``Decoder.project``, or ``generate``'s steps project its memories again
    each. The pass feeds ``PREFILL_ROWS`` or fewer of a group's rows per
    forward, in near-equal pieces, each through a fresh ``DecodeCache``.
    No row is padded, so each row's arithmetic is its batch-1 arithmetic.
    The head runs on each row's last two positions, never on one alone, so
    the last one keeps the bits of the uncached forward's; a one-position
    prompt, whose head row would stand alone, is refused in a group of more
    than one. A row is taken once, and the batch then drops it, so a
    piece's cache goes with its last row.
    """

    def __init__(self, decoder: Decoder, gates: GateVector | None):
        self.decoder, self.gates = decoder, gates
        self.queued: list[tuple[Tensor, FusedKV | None]] = []
        self.fed: list[list[tuple[int, DecodeCache, int] | None]] = []

    def add(self, prompts: Tensor, fused: FusedKV | None) -> list[PromptRow]:
        n, p, _ = prompts.shape
        if p < 2 and n > 1:
            raise ContractError(f"a prompt group of {n} rows needs 2 or more positions, got {p}")
        self.queued.append((prompts, fused))
        group = len(self.fed) + len(self.queued) - 1
        return [PromptRow(self, group, r) for r in range(n)]

    def take(self, group: int, row: int, steps: int) -> tuple[int, DecodeCache]:
        """The row's greedy id after its prompt, and its own batch-1 cache
        with room for ``steps`` more positions, none at or past
        ``max_positions``; the pass runs first if it has not."""
        if self.queued:
            self.fed += [self._feed(prompts, fused) for prompts, fused in self.queued]
            self.queued = []
        (next_id, cache, r), self.fed[group][row] = self.fed[group][row], None
        return next_id, cache.row(r, min(cache.offset + steps, self.decoder.config.max_positions - 1))

    def _feed(self, prompts: Tensor, fused: FusedKV | None) -> list[tuple[int, DecodeCache, int]]:
        n, p, _ = prompts.shape
        out = []
        for piece in np.array_split(np.arange(n), -(-n // PREFILL_ROWS)):
            a, b = int(piece[0]), int(piece[-1]) + 1
            cache = DecodeCache()
            rows = (np.arange(b - a)[:, None] * p + np.arange(max(p - 2, 0), p)).reshape(-1)
            fused_rows = None if fused is None else fused.rows(a, b)
            logits, _ = self.decoder.forward(Tensor(prompts.data[a:b]), fused_rows, self.gates, cache=cache, rows=rows)
            last = logits.data.reshape(b - a, -1, self.decoder.config.vocab_size)[:, -1]
            out += [(int(next_id), cache, r) for r, next_id in enumerate(last.argmax(axis=-1))]
        return out


def generate(
    decoder: Decoder,
    prompt: Tensor | PromptRow,
    fused: FusedKV | None,
    gates: GateVector | None,
    max_new_tokens: int,
) -> list[int]:
    """Greedy decoding of one sequence: an assembled prompt [1, P, d_dec],
    fed here as a group of one, or a ``PromptRow`` of a ``Prefill`` built
    with the same ``gates`` and this row's ``fused``.

    The row gets its own ``DecodeCache``, sized to its prompt plus the
    budget, and each emitted token but the last is then fed as one
    position. Stops at the
    end marker, at the budget, or when the sequence length reaches
    ``max_positions``; the end marker itself is not returned.
    """
    if max_new_tokens < 1:
        raise ContractError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    c = decoder.config
    if isinstance(prompt, Tensor):
        if prompt.shape[0] != 1:
            raise ContractError(f"generate works on a single sequence, got batch {prompt.shape[0]}")
        if prompt.shape[1] >= c.max_positions:
            return []
        if fused is not None and fused.kv is None:
            fused = decoder.project(fused)
        [prompt] = Prefill(decoder, gates).add(prompt, fused)
    # the steps feed every emitted token but the last
    next_id, cache = prompt.prefill.take(prompt.group, prompt.row, max_new_tokens - 1)
    out: list[int] = []
    while next_id != EOS:
        out.append(next_id)
        if len(out) == max_new_tokens or cache.offset + 1 >= c.max_positions:
            break
        # an argmax over the head's columns is a row of tok_emb, so the id
        # needs none of embed_tokens' checks
        logits, _ = decoder.forward(Tensor(decoder.tok_emb.data[next_id][None, None]), fused, gates, cache=cache)
        next_id = int(logits.data[0, -1].argmax())
    return out
