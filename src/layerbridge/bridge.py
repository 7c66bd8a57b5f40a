"""Trainable bridge between the frozen encoder and the frozen decoder.

Two components. The adapter is one ``nn.Linear`` that ``adapt`` applies
position-wise to the encoder's final state, mapping it into decoder width;
its output is the soft prompt spliced into the decoder's input. The
layer-wise aligner holds one learned softmax weighting over the earlier
encoder states (0..n-1 by default) per decoder layer. In one pass it mixes
the stacked states by the whole [m, k] weight matrix, runs the m mixtures
through the fusion network shared across decoder layers, and hands decoder
layer i the i-th slice as its memory, which that layer reads through its
own key and value projections.

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

SUBSET_KINDS = ("first", "middle", "last", "last_hidden", "average")


@dataclass(frozen=True)
class LayerSubset:
    """Restriction of the aligner's mixing range.

    ``indices`` select encoder states (0 = embeddings, n = final layer).
    ``frozen_uniform`` bypasses the learned weighting with constant 1/k,
    which is how the plain-average variant is wired.
    """

    indices: tuple[int, ...]
    frozen_uniform: bool = False

    def __post_init__(self):
        if not self.indices:
            raise ConfigError("layer subset must be nonempty")
        if len(set(self.indices)) != len(self.indices):
            raise ConfigError(f"layer subset has duplicates: {self.indices}")


def subset_from_spec(spec: str, n_layers: int) -> LayerSubset:
    """Parse a subset spec against an encoder with states 0..n_layers.

    Accepted forms: ``first:k``, ``middle:k``, ``last:k``, ``last_hidden``,
    ``average``, or an explicit comma list like ``0,2,5``. Named windows span
    the full state list (``last:k`` ends at the final state); ``average`` is
    a frozen-uniform mixture over all states.
    """
    n_states = n_layers + 1
    spec = spec.strip()
    if spec == "last_hidden":
        return LayerSubset(indices=(n_layers,))
    if spec == "average":
        return LayerSubset(indices=tuple(range(n_states)), frozen_uniform=True)
    if ":" in spec:
        kind, _, count = spec.partition(":")
        try:
            k = int(count)
        except ValueError:
            raise ConfigError(f"bad subset count in {spec!r}") from None
        if not 1 <= k <= n_states:
            raise ConfigError(f"subset size {k} outside 1..{n_states}")
        if kind == "first":
            return LayerSubset(indices=tuple(range(k)))
        if kind == "middle":
            start = (n_states - k) // 2
            return LayerSubset(indices=tuple(range(start, start + k)))
        if kind == "last":
            return LayerSubset(indices=tuple(range(n_states - k, n_states)))
        raise ConfigError(f"unknown subset kind {kind!r}; expected one of {SUBSET_KINDS}")
    try:
        indices = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse layer subset {spec!r}") from None
    for idx in indices:
        if not 0 <= idx <= n_layers:
            raise ConfigError(f"layer index {idx} outside 0..{n_layers}")
    return LayerSubset(indices=indices)


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
    source positions (``nn.padding_bias`` of the source mask)."""

    memories: list[Tensor]
    bias: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.memories)


class LayerWiseAligner:
    """Learned per-decoder-layer mixtures over encoder states.

    One logit row per decoder layer; a row's softmax weights the mixing
    range (states 0..n-1 unless a subset overrides it). Logit storage covers
    all n+1 states so explicit subsets can reach the final state, but the
    default path never reads its column. The mixed sequences run through
    linear -> ReLU -> linear into decoder width.
    """

    def __init__(self, rng: np.random.Generator, n_enc_layers: int, n_dec_layers: int,
                 d_enc: int, d_hidden: int, d_dec: int):
        self.n_enc_layers = n_enc_layers
        self.n_dec_layers = n_dec_layers
        self.d_enc = d_enc
        self.mixing_logits = Tensor(
            np.zeros((n_dec_layers, n_enc_layers + 1), dtype=np.float32), requires_grad=True
        )
        self.fuse_in = Linear(rng, d_enc, d_hidden)
        self.k_head = Linear(rng, d_hidden, d_dec)

    def named_params(self, prefix: str = "aligner") -> dict[str, Tensor]:
        out = {f"{prefix}.mixing_logits": self.mixing_logits}
        out.update(self.fuse_in.named_params(f"{prefix}.fuse_in"))
        out.update(self.k_head.named_params(f"{prefix}.k_head"))
        return out

    def fuse_all(self, stack: LayerStack, subset: LayerSubset | None = None) -> FusedKV:
        """All m memories in one pass: an [m, k] weight matrix times the k
        chosen states, then one fusion-network run over the m mixtures."""
        if stack.n_layers != self.n_enc_layers:
            raise ConfigError(
                f"aligner built for {self.n_enc_layers} encoder layers, stack has {stack.n_layers}"
            )
        indices = tuple(range(self.n_enc_layers)) if subset is None else subset.indices
        for idx in indices:
            if not 0 <= idx <= self.n_enc_layers:
                raise ConfigError(f"layer index {idx} outside 0..{self.n_enc_layers}")
        m, k = self.n_dec_layers, len(indices)
        batch, src_len, d_enc = stack.states[0].shape
        support = Tensor(np.stack([stack.states[j].reshape(-1) for j in indices], axis=0))
        # weights are [m, 1, k], not [m, k]: numpy runs each layer's row as a
        # vector-matrix product, which rounds as a lone row does, where one
        # [m, k] GEMM can round differently
        if subset is not None and subset.frozen_uniform:
            weights = Tensor(np.full((m, 1, k), 1.0 / k, dtype=np.float32))
        else:
            weights = ad.softmax(ad.take(self.mixing_logits, [indices], axis=1), axis=-1)
        mixed = ad.reshape(ad.matmul(weights, support), (m * batch, src_len, d_enc))
        memories = self.k_head(ad.relu(self.fuse_in(mixed)))
        return FusedKV(
            memories=[ad.narrow(memories, 0, i * batch, batch) for i in range(m)],
            bias=padding_bias(stack.mask),
        )


def aligner_weight_matrix(aligner: LayerWiseAligner) -> np.ndarray:
    """Softmax of each decoder layer's logits over the default mixing range:
    an [m, n] matrix whose rows sum to 1, uniform 1/n at init."""
    logits = aligner.mixing_logits.data[:, : aligner.n_enc_layers].astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
