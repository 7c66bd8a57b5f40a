"""Trainable bridge between the frozen encoder and the frozen decoder.

Two components. The adapter is one ``nn.Linear`` that ``adapt`` applies
position-wise to the encoder's final state, mapping it into decoder width;
its output is the soft prompt spliced into the decoder's input. The
layer-wise aligner holds one learned softmax weighting over the earlier
encoder states 0..n-1 per decoder layer, or, under one of the two
``ALIGNER_MODES`` ablations, a fixed mixture: the final state alone
(``last_hidden``) or all n+1 states at equal weight (``average``). In one
pass it mixes the stacked states by the whole [m, k] weight matrix, runs
the m mixtures through the fusion network shared across decoder layers,
and hands decoder layer i the i-th slice as its memory, which that layer
reads through its own key and value projections.

Encoder states arrive as read-only numpy arrays; they enter the graph as
constants, so gradients reach only the bridge's own parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import LayerStack
from .errors import ConfigError
from .nn import Linear, padding_bias

# the aligner's fixed mixtures: the final state alone, or every state at 1/(n+1)
ALIGNER_MODES = ("last_hidden", "average")


def adapt(adapter: Linear, stack: LayerStack) -> Tensor:
    """Soft prompt [batch, src_len, d_dec]: ``adapter`` applied to the final
    encoder state."""
    final = stack.final
    d_enc = adapter.weight.shape[0]
    if final.shape[-1] != d_enc:
        raise ConfigError(f"adapter expects encoder width {d_enc}, stack carries {final.shape[-1]}")
    return adapter(Tensor(final))


@dataclass
class FusedKV:
    """Per-decoder-layer cross-attention inputs: m memories, each
    [batch, src_len, d_dec], plus the additive key bias that hides padded
    source positions (``nn.padding_bias`` of the source mask).

    ``kv`` holds each memory already projected through its decoder layer's
    ``wk`` and ``wv`` (``Decoder.project``), so that inference projects a
    group of rows once rather than per forward; ``None``, as in training,
    has each forward project them on its tape.
    """

    memories: list[Tensor]
    bias: np.ndarray
    kv: list[tuple[Tensor, Tensor]] | None = None

    @property
    def n_layers(self) -> int:
        return len(self.memories)

    def rows(self, start: int, stop: int) -> FusedKV:
        """Batch rows ``start`` to ``stop``, as views."""

        def cut(t: Tensor) -> Tensor:
            return Tensor(t.data[start:stop])

        kv = None if self.kv is None else [(cut(k), cut(v)) for k, v in self.kv]
        return FusedKV([cut(m) for m in self.memories], self.bias[start:stop], kv)


class LayerWiseAligner:
    """Per-decoder-layer mixtures over encoder states.

    ``mode`` fixes which states the memories mix and with what weights. By
    default each decoder layer learns one softmax row over states 0..n-1;
    logit storage covers all n+1 states, but no row reads the final state's
    column. ``last_hidden`` reads the final state n alone and ``average``
    weights all n+1 states by a constant 1/(n+1); neither has logits to
    learn. The mixed sequences run through linear -> ReLU -> linear into
    decoder width.
    """

    def __init__(self, rng: np.random.Generator, n_enc_layers: int, n_dec_layers: int,
                 d_enc: int, d_hidden: int, d_dec: int, mode: str | None = None):
        if mode is not None and mode not in ALIGNER_MODES:
            raise ConfigError(f"unknown aligner mode {mode!r}; expected None or one of {ALIGNER_MODES}")
        self.n_enc_layers = n_enc_layers
        self.n_dec_layers = n_dec_layers
        self.d_enc = d_enc
        # the encoder states each memory mixes, 0 = embeddings, n = final layer
        self.states = {None: tuple(range(n_enc_layers)), "last_hidden": (n_enc_layers,),
                       "average": tuple(range(n_enc_layers + 1))}[mode]
        self.mixing_logits = None if mode is not None else Tensor(
            np.zeros((n_dec_layers, n_enc_layers + 1), dtype=np.float32), requires_grad=True
        )
        self.fuse_in = Linear(rng, d_enc, d_hidden)
        self.k_head = Linear(rng, d_hidden, d_dec)

    def named_params(self, prefix: str = "aligner") -> dict[str, Tensor]:
        out = {} if self.mixing_logits is None else {f"{prefix}.mixing_logits": self.mixing_logits}
        out.update(self.fuse_in.named_params(f"{prefix}.fuse_in"))
        out.update(self.k_head.named_params(f"{prefix}.k_head"))
        return out

    def fuse_all(self, stack: LayerStack) -> FusedKV:
        """All m memories in one pass: an [m, k] weight matrix times the k
        mixed states, then one fusion-network run over the m mixtures."""
        if stack.n_layers != self.n_enc_layers:
            raise ConfigError(
                f"aligner built for {self.n_enc_layers} encoder layers, stack has {stack.n_layers}"
            )
        m, k = self.n_dec_layers, len(self.states)
        batch, src_len, d_enc = stack.states[0].shape
        support = Tensor(np.stack([stack.states[j].reshape(-1) for j in self.states], axis=0))
        # weights are [m, 1, k], not [m, k]: numpy runs each layer's row as a
        # vector-matrix product, which rounds as a lone row does, where one
        # [m, k] GEMM can round differently
        if self.mixing_logits is None:
            weights = Tensor(np.full((m, 1, k), 1.0 / k, dtype=np.float32))
        else:
            weights = ad.softmax(ad.take(self.mixing_logits, [self.states], axis=1), axis=-1)
        mixed = ad.reshape(ad.matmul(weights, support), (m * batch, src_len, d_enc))
        memories = self.k_head(ad.relu(self.fuse_in(mixed)))
        return FusedKV(
            memories=[ad.narrow(memories, 0, i * batch, batch) for i in range(m)],
            bias=padding_bias(stack.mask),
        )


def aligner_weight_matrix(aligner: LayerWiseAligner) -> np.ndarray:
    """The weights the memories put on ``aligner.states``: an [m, k] matrix
    whose rows sum to 1, uniform 1/k at init and constant under a mode."""
    k = len(aligner.states)
    if aligner.mixing_logits is None:
        return np.full((aligner.n_dec_layers, k), 1.0 / k)
    logits = aligner.mixing_logits.data[:, list(aligner.states)].astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
