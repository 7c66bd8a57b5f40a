"""Shared building blocks: the trainable linear map, attention, and the frozen stack.

Modules here are thin parameter containers. They expose ``named_params`` so
owners can compose flat ``{name: Tensor}`` dictionaries for the optimizer
and the checkpoint writer; nothing registers itself globally. The frozen
encoder and decoder are both a ``FrozenStack``: embeddings plus pre-norm
layers of one layout (``init_layer``), run through the same two sublayers,
``attention_sublayer`` (self-attention, in the decoder also the gated
cross-attention read, and the residual) and ``feed_forward``. Each sublayer
is one tape entry with a hand-written backward rule that sums its
gradients in the order the chain of single ops it replaces would, so
forward and backward keep that chain's bits. The stack holds weights only:
a frozen bias would stay at zero and a frozen layer-norm affine at
identity.

The init scales ``EMB_SCALE`` and ``POS_SCALE`` are module constants, not
config: the frozen stand-ins are fixed, so they are not an experimental
variable.
"""

from __future__ import annotations

import functools
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


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, bias: np.ndarray | None):
    """Scaled dot-product attention over pre-projected [B, S, D] arrays.

    Returns the head-merged output and its rule: given the output's gradient
    and which of q, k and v need one, the rule returns (gq, gk, gv), reusing
    the forward's head-split views and attention weights. ``attention`` and
    ``attention_sublayer`` both run through it.
    """
    batch, s_q, d = q.shape
    if d % n_heads:
        raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    s_k = k.shape[1]
    # per-head views, [B, H, S, dh]; the keys' view is transposed, [B, H, dh, S_k]
    qh = q.reshape(batch, s_q, n_heads, dh).transpose(0, 2, 1, 3)
    kt = k.reshape(batch, s_k, n_heads, dh).transpose(0, 2, 3, 1)
    vh = v.reshape(batch, s_k, n_heads, dh).transpose(0, 2, 1, 3)
    scores = np.matmul(qh, kt)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=scores.dtype)
    scores = scores * scale
    if bias is not None:
        scores = scores + np.asarray(bias, dtype=scores.dtype)
    # the ufunc reductions np.max and np.sum dispatch to, called directly.
    # Over the short key axis numpy's max is slow; over a contiguous copy
    # with that axis first it is a few whole-array maxima, exact, so the
    # bits hold. At batch 1 the copy costs more than it saves.
    if batch > 1:
        peak = np.maximum.reduce(np.ascontiguousarray(scores.transpose(3, 0, 1, 2)), axis=0)[..., None]
    else:
        peak = np.maximum.reduce(scores, axis=-1, keepdims=True)
    exp = np.exp(scores - peak)
    y = exp / np.add.reduce(exp, axis=-1, keepdims=True)

    def grad(g: np.ndarray, nq: bool, nk: bool, nv: bool):
        def merge(x: np.ndarray) -> np.ndarray:
            return x.transpose(0, 2, 1, 3).reshape(batch, x.shape[2], d)

        gh = g.reshape(batch, s_q, n_heads, dh).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if nv:
            gv = merge(np.matmul(np.swapaxes(y, -1, -2), gh))
        if nq or nk:
            gy = np.matmul(gh, np.swapaxes(vh, -1, -2))
            gs = (gy - np.add.reduce(gy * y, axis=-1, keepdims=True)) * y * scale
            if nq:
                gq = merge(np.matmul(gs, np.swapaxes(kt, -1, -2)))
            if nk:
                gk = merge(np.matmul(np.swapaxes(gs, -1, -2), qh))
        return gq, gk, gv

    return np.matmul(y, vh).transpose(0, 2, 1, 3).reshape(batch, s_q, d), grad


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              bias: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over pre-projected q/k/v, [B, S, D] each.

    ``bias`` is an additive mask broadcastable to [B, 1, S_q, S_k]; blocked
    slots carry a large negative constant rather than -inf so fully blocked
    rows stay finite. One tape entry, whose backward reuses the forward's
    head-split views and attention weights.
    """
    out, grad = _attend(q.data, k.data, v.data, n_heads, bias)
    needs = (q.requires_grad, k.requires_grad, v.requires_grad)
    return ad._record(Tensor(out), (q, k, v), lambda g: grad(g, *needs))


@functools.cache
def causal_bias(s: int) -> np.ndarray:
    """[1, 1, S, S] additive mask hiding future positions, built once per
    length and returned read-only."""
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    bias = np.where(mask, np.asarray(-1e9, dtype=np.float32), np.asarray(0.0, dtype=np.float32))[None, None]
    bias.flags.writeable = False
    return bias


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


def attention_sublayer(
    layer: dict[str, Tensor], x: Tensor, n_heads: int, bias: np.ndarray | None,
    kv: tuple[np.ndarray, np.ndarray] | None = None, offset: int = 0,
    cross: tuple[Tensor, Tensor, Tensor, np.ndarray | None] | None = None,
) -> tuple[Tensor, Tensor, Tensor | None]:
    """Pre-norm attention sublayer with its residual, as one tape entry.

    Self-attention reads ``LN(x)`` through ``wq``, ``wk``, ``wv`` and ``wo``
    under the additive ``bias``. ``cross`` is a cross-attention read,
    ``(k, v, gate, key_bias)``: the same queries also read the memory keys
    ``k`` and values ``v`` (already projected, [B, S_m, D] each) under
    ``key_bias``, through ``wo``, scaled by ``gate``. Returns (``x + SA`` or
    ``x + SA + gate * CA``, SA output, ungated CA output or ``None``). Only
    the first is on the tape, with gradients for ``x``, the memory keys and
    values and the gate; the SA and CA outputs are records off the tape, so
    no gradient flows from them. The layer's weights are frozen constants.

    ``kv`` is a pair of key and value buffers, [B, S_max, D] each, whose rows
    before ``offset`` hold earlier positions of the same sequences: the call
    writes its keys and values into the rows from ``offset`` on, in place,
    and attends over every row up to its own last. Buffered keys and values
    are constants to the backward.
    """
    x_data = x.data
    normed, norm_grad = ad._normalize(x_data)
    wq, wk, wv, wo = layer["wq"].data, layer["wk"].data, layer["wv"].data, layer["wo"].data
    mm = ad._matmul_for(x_data)
    q = mm(normed, wq)
    k = mm(normed, wk)
    v = mm(normed, wv)
    if kv is not None:
        end = offset + x.shape[1]
        kv[0][:, offset:end] = k
        kv[1][:, offset:end] = v
        k, v = kv[0][:, :end], kv[1][:, :end]
    sa_read, sa_grad = _attend(q, k, v, n_heads, bias)
    sa = mm(sa_read, wo)
    nx = x.requires_grad
    if cross is None:
        out, ca, inputs = x_data + sa, None, (x,)
    else:
        mem_k, mem_v, gate, key_bias = cross
        ca_read, ca_grad = _attend(q, mem_k.data, mem_v.data, n_heads, key_bias)
        ca = mm(ca_read, wo)
        gate_data = gate.data
        out, inputs = x_data + sa + ca * gate_data, (x, mem_k, mem_v, gate)

    def rule(g):
        # sums follow the chain of single ops' order: the CA query gradient
        # before SA's, then v, k and q into LN(x), the residual before LN
        gq = g_mk = g_mv = g_gate = None
        if cross is not None:
            n_mem = mem_k.requires_grad, mem_v.requires_grad
            if gate.requires_grad:
                g_gate = ad._unbroadcast(g * ca, gate_data.shape)
            if nx or any(n_mem):
                g_read = ad._weight_grads(g * gate_data, ca_read, wo, True, False)[0]
                gq, g_mk, g_mv = ca_grad(g_read, nx, *n_mem)
        gx = None
        if nx:
            fresh = kv is None
            gq_sa, gk, gv = sa_grad(ad._weight_grads(g, sa_read, wo, True, False)[0], True, fresh, fresh)
            gq = gq_sa if gq is None else gq + gq_sa
            g_normed = None
            for gp, w in ((gv, wv), (gk, wk), (gq, wq)):
                if gp is not None:
                    gn = ad._weight_grads(gp, normed, w, True, False)[0]
                    g_normed = gn if g_normed is None else g_normed + gn
            gx = g + norm_grad(g_normed)
        return (gx,) if cross is None else (gx, g_mk, g_mv, g_gate)

    return ad._record(Tensor(out), inputs, rule), Tensor(sa), None if ca is None else Tensor(ca)


def feed_forward(layer: dict[str, Tensor], x: Tensor) -> Tensor:
    """Pre-norm ReLU feed-forward sublayer with its residual,
    ``x + relu(LN(x) @ ff1_w) @ ff2_w``, as one tape entry. The layer's
    weights are frozen constants."""
    normed, norm_grad = ad._normalize(x.data)
    w1, w2 = layer["ff1_w"].data, layer["ff2_w"].data
    mm = ad._matmul_for(normed)
    pre = mm(normed, w1)
    hidden = np.maximum(pre, 0)

    def rule(g):
        g_hidden = ad._weight_grads(g, hidden, w2, True, False)[0]
        g_normed = ad._weight_grads(g_hidden * (pre > 0), normed, w1, True, False)[0]
        return (g + norm_grad(g_normed),)

    return ad._record(Tensor(x.data + mm(hidden, w2)), (x,), rule)
