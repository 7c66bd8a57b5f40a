"""Shared building blocks: the trainable linear map, attention, and the frozen stack.

Modules here are thin parameter containers. They expose ``named_params`` so
owners can compose flat ``{name: Tensor}`` dictionaries for the optimizer
and the checkpoint writer; nothing registers itself globally. The frozen
encoder and decoder are both a ``FrozenStack``: embeddings plus pre-norm
layers of one layout (``init_layer``), run through the same two sublayers,
``self_attention`` and ``feed_forward``. The stack holds weights only: a
frozen bias would stay at zero and a frozen layer-norm affine at identity.

The init scales ``EMB_SCALE`` and ``POS_SCALE`` are module constants, not
config: the frozen stand-ins are fixed, so they are not an experimental
variable.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, ShapeError

# init scales of the frozen stand-in embeddings; position needs to be well
# represented in the states or downstream alignment cannot route by it
EMB_SCALE = 0.5
POS_SCALE = 0.3


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


class Linear:
    """Trainable y = x @ W + b. Weight is [d_in, d_out]; the bias starts at zero."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.weight = Tensor(glorot(rng, d_in, d_out), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight, bias=self.bias)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              bias: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over pre-projected q/k/v, [B, S, D] each.

    ``bias`` is an additive mask broadcastable to [B, 1, S_q, S_k]; blocked
    slots carry a large negative constant rather than -inf so fully blocked
    rows stay finite. One tape entry, whose backward reuses the forward's
    head-split views and attention weights.
    """
    batch, _, d = q.shape
    if d % n_heads:
        raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
    dh = d // n_heads

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(batch, x.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(batch, x.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=scores.dtype)
    scores = scores * scale
    if bias is not None:
        scores = scores + np.asarray(bias, dtype=scores.dtype)
    # the ufunc reductions np.max and np.sum dispatch to, called directly
    exp = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    y = exp / np.add.reduce(exp, axis=-1, keepdims=True)
    out = Tensor(merge(np.matmul(y, vh)))
    nq, nk, nv = q.requires_grad, k.requires_grad, v.requires_grad

    def rule(g):
        gh = split(g)
        gq = gk = gv = None
        if nv:
            gv = merge(np.matmul(np.swapaxes(y, -1, -2), gh))
        if nq or nk:
            gy = np.matmul(gh, np.swapaxes(vh, -1, -2))
            gs = (gy - np.add.reduce(gy * y, axis=-1, keepdims=True)) * y * scale
            if nq:
                gq = merge(np.matmul(gs, kh))
            if nk:
                gk = merge(np.matmul(np.swapaxes(gs, -1, -2), qh))
        return gq, gk, gv

    return ad._record(out, (q, k, v), rule)


def causal_bias(s: int) -> np.ndarray:
    """[1, 1, S, S] additive mask hiding future positions."""
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    return np.where(mask, np.asarray(-1e9, dtype=np.float32), np.asarray(0.0, dtype=np.float32))[None, None]


def padding_bias(valid: np.ndarray) -> np.ndarray:
    """[B, S_k] validity -> [B, 1, 1, S_k] additive key mask."""
    blocked = ~np.asarray(valid, dtype=bool)
    return np.where(blocked, np.asarray(-1e9, dtype=np.float32), np.asarray(0.0, dtype=np.float32))[:, None, None, :]


def init_layer(rng: np.random.Generator, d: int, d_ff: int) -> dict[str, Tensor]:
    """Frozen (no-grad) weights of one pre-norm transformer layer of width ``d``.

    Draws wq, wk, wv, wo, ff1_w, ff2_w from ``rng`` in that order. The
    layer has no biases and its layer norms no affine: frozen, they would
    stay at zero and identity.
    """
    return {
        "wq": Tensor(glorot(rng, d, d)),
        "wk": Tensor(glorot(rng, d, d)),
        "wv": Tensor(glorot(rng, d, d)),
        "wo": Tensor(glorot(rng, d, d)),
        "ff1_w": Tensor(glorot(rng, d, d_ff)),
        "ff2_w": Tensor(glorot(rng, d_ff, d)),
    }


class FrozenStack:
    """The parts the frozen encoder and decoder share: token and position
    embeddings and ``n_layers`` pre-norm layers, seed-pinned and never trained.

    Draws ``tok_emb``, ``pos_emb`` and then each layer from ``rng``, in that
    order. Token ids and positions are checked where they are read; a bad
    one raises ``InputError``.
    """

    def __init__(self, rng: np.random.Generator, vocab_size: int, d: int, n_layers: int,
                 d_ff: int, max_positions: int):
        self.tok_emb = Tensor(rng.normal(0, EMB_SCALE, size=(vocab_size, d)).astype(np.float32))
        self.pos_emb = Tensor(rng.normal(0, POS_SCALE, size=(max_positions, d)).astype(np.float32))
        self.layers = [init_layer(rng, d, d_ff) for _ in range(n_layers)]

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.tok_emb": self.tok_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, layer in enumerate(self.layers):
            for key, tensor in layer.items():
                out[f"{prefix}.layer{i}.{key}"] = tensor
        return out

    def token_ids(self, tokens: np.ndarray) -> np.ndarray:
        """[batch, length] ``tokens`` as int64, each checked to index a row of
        ``tok_emb``."""
        idx = np.asarray(tokens, dtype=np.int64)
        vocab = self.tok_emb.shape[0]
        bad = (idx < 0) | (idx >= vocab)
        if bad.any():
            b, s = map(int, np.argwhere(bad)[0])
            raise InputError(f"token id {idx[b, s]} at batch {b}, position {s} outside vocab of {vocab}")
        return idx

    def embed_tokens(self, tokens: np.ndarray) -> Tensor:
        """Frozen embedding lookup, [batch, length, d]."""
        return Tensor(self.tok_emb.data[self.token_ids(tokens)])

    def positions(self, offset: int, length: int) -> np.ndarray:
        """Position embeddings of positions ``offset`` to ``offset + length``,
        [1, length, d]."""
        if offset + length > self.pos_emb.shape[0]:
            raise InputError(f"sequence length {offset + length} exceeds max_positions {self.pos_emb.shape[0]}")
        return self.pos_emb.data[offset : offset + length][None]


def self_attention(
    layer: dict[str, Tensor], x: Tensor, n_heads: int, bias: np.ndarray | None,
    kv: tuple[np.ndarray, np.ndarray] | None = None, offset: int = 0,
) -> tuple[Tensor, Tensor]:
    """Pre-norm self-attention sublayer, residual not added.

    Returns (output projected through ``wo``, queries); the queries come back
    so a decoder can reuse them to read its cross-attention memory. ``kv`` is
    a pair of key and value buffers, [B, S_max, D] each, whose rows before
    ``offset`` hold earlier positions of the same sequences: this call writes
    its keys and values into the rows from ``offset`` on, in place, and
    attends over every row up to its own last.
    """
    normed = ad.layer_norm(x)
    q = ad.matmul(normed, layer["wq"])
    k = ad.matmul(normed, layer["wk"])
    v = ad.matmul(normed, layer["wv"])
    if kv is not None:
        end = offset + x.shape[1]
        kv[0][:, offset:end] = k.data
        kv[1][:, offset:end] = v.data
        k, v = Tensor(kv[0][:, :end]), Tensor(kv[1][:, :end])
    return ad.matmul(attention(q, k, v, n_heads, bias=bias), layer["wo"]), q


def feed_forward(layer: dict[str, Tensor], x: Tensor) -> Tensor:
    """Pre-norm ReLU feed-forward sublayer with its residual: x + FFN(LN(x))."""
    normed = ad.layer_norm(x)
    hidden = ad.relu(ad.matmul(normed, layer["ff1_w"]))
    return ad.add(x, ad.matmul(hidden, layer["ff2_w"]))
