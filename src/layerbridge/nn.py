"""Shared building blocks: linear maps, attention, and the frozen layer.

Modules here are thin parameter containers. They expose ``named_params`` so
owners can compose flat ``{name: Tensor}`` dictionaries for the optimizer
and the checkpoint writer; nothing registers itself globally. The frozen
encoder and decoder share one pre-norm layer layout (``init_layer``) and run
it through the same two sublayers, ``self_attention`` and ``feed_forward``.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


class Linear:
    """y = x @ W + b. Weight is [d_in, d_out]."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 trainable: bool = True, dtype=np.float32):
        self.weight = Tensor(glorot(rng, d_in, d_out, dtype), requires_grad=trainable)
        self.bias = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

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


def causal_bias(s: int, dtype=np.float32) -> np.ndarray:
    """[1, 1, S, S] additive mask hiding future positions."""
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    return np.where(mask, np.asarray(-1e9, dtype=dtype), np.asarray(0.0, dtype=dtype))[None, None]


def padding_bias(valid: np.ndarray, dtype=np.float32) -> np.ndarray:
    """[B, S_k] validity -> [B, 1, 1, S_k] additive key mask."""
    blocked = ~np.asarray(valid, dtype=bool)
    return np.where(blocked, np.asarray(-1e9, dtype=dtype), np.asarray(0.0, dtype=dtype))[:, None, None, :]


def init_layer(rng: np.random.Generator, d: int, d_ff: int) -> dict[str, Tensor]:
    """Frozen (no-grad) weights of one pre-norm transformer layer of width ``d``.

    Draws wq, wk, wv, wo, ff1_w, ff2_w from ``rng`` in that order; biases
    start at zero. The layer norms carry no affine: a frozen one would stay
    at identity.
    """
    return {
        "wq": Tensor(glorot(rng, d, d)),
        "wk": Tensor(glorot(rng, d, d)),
        "wv": Tensor(glorot(rng, d, d)),
        "wo": Tensor(glorot(rng, d, d)),
        "ff1_w": Tensor(glorot(rng, d, d_ff)),
        "ff1_b": Tensor(np.zeros(d_ff, dtype=np.float32)),
        "ff2_w": Tensor(glorot(rng, d_ff, d)),
        "ff2_b": Tensor(np.zeros(d, dtype=np.float32)),
    }


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
    ff = ad.linear(ad.relu(ad.linear(normed, layer["ff1_w"], layer["ff1_b"])), layer["ff2_w"], layer["ff2_b"])
    return ad.add(x, ff)
