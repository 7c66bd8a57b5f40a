"""Dense tensors with taped reverse-mode differentiation.

Desk-scale engine: tensors wrap numpy arrays, differentiable ops append
entries to the innermost active ``Tape``, and ``backward`` replays the tape
in reverse, accumulating gradients additively across fan-out. With no tape
active (or no tracked inputs) every op is plain numpy, which keeps frozen
submodels free of bookkeeping.

Parameters and activations are float32 by default; gradient-check suites
construct everything in float64 for precision.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EmptyLossError, ShapeError

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-5

_node_ids = itertools.count()
_tape_stack: list["Tape"] = []


class Tensor:
    """A dense float array plus autodiff bookkeeping.

    ``requires_grad`` marks leaves owned by an optimizer; op outputs inherit
    it whenever a recorded input requires grad. ``grad`` is populated by
    ``backward`` and always matches ``data``'s shape. Tensors are treated as
    immutable once created; only optimizers mutate leaf ``data`` in place,
    between steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node_id = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class TapeEntry:
    __slots__ = ("output", "inputs", "backward_rule")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], backward_rule: Callable):
        self.output = output
        self.inputs = inputs
        self.backward_rule = backward_rule


class Tape:
    """Ordered record of differentiable operations.

    Entries are appended in execution order, so every operation's inputs
    precede it — the list is topologically sorted by construction.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        return False


def active_tape() -> Tape | None:
    return _tape_stack[-1] if _tape_stack else None


def _record(out: Tensor, inputs: Sequence[Tensor], backward_rule: Callable) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.entries.append(TapeEntry(out, tuple(inputs), backward_rule))
    return out


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

    Gradients accumulate additively across fan-out. ``grad`` is overwritten,
    not accumulated, across separate ``backward`` calls.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {loss.node_id: loss}
    for entry in reversed(tape.entries):
        out_grad = grads.pop(entry.output.node_id, None)
        if out_grad is None:
            continue
        if entry.output.requires_grad:
            entry.output.grad = out_grad
        input_grads = entry.backward_rule(out_grad)
        for tensor, grad in zip(entry.inputs, input_grads):
            if grad is None:
                continue
            holders[tensor.node_id] = tensor
            seen = grads.get(tensor.node_id)
            grads[tensor.node_id] = grad if seen is None else seen + grad
    for node_id, grad in grads.items():
        tensor = holders[node_id]
        if tensor.requires_grad:
            tensor.grad = grad


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = Tensor(a.data + b.data)
    na, nb = a.requires_grad, b.requires_grad

    def rule(g):
        return (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(g, b.data.shape) if nb else None,
        )

    return _record(out, (a, b), rule)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = Tensor(a.data * b.data)
    na, nb = a.requires_grad, b.requires_grad
    a_data, b_data = a.data, b.data

    def rule(g):
        return (
            _unbroadcast(g * b_data, a_data.shape) if na else None,
            _unbroadcast(g * a_data, b_data.shape) if nb else None,
        )

    return _record(out, (a, b), rule)


def _weight_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, nx: bool, nw: bool):
    """Gradients of ``x @ w`` for a 2-d ``w``: the leading dims of ``x`` are
    flattened, so each gradient is one GEMM with no per-batch temporary."""
    g2 = g.reshape(-1, g.shape[-1])
    gx = (g2 @ w.T).reshape(x.shape) if nx else None
    gw = x.reshape(-1, x.shape[-1]).T @ g2 if nw else None
    return gx, gw


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus the row ``bias`` when one is given, as one tape entry."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data
    out = np.matmul(a_data, b_data)
    inputs = (a, b)
    na, nb, n_bias = a.requires_grad, b.requires_grad, False
    if bias is not None:
        out = out + bias.data
        inputs, n_bias, bias_shape = (a, b, bias), bias.requires_grad, bias.data.shape

    def rule(g):
        if b_data.ndim == 2:
            ga, gb = _weight_grads(g, a_data, b_data, na, nb)
        else:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_data.shape) if na else None
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_data.shape) if nb else None
        return ga, gb, _unbroadcast(g, bias_shape) if n_bias else None

    return _record(Tensor(out), inputs, rule)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    x_data = x.data

    def rule(g):
        return (g * (x_data > 0),)

    return _record(out, (x,), rule)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(np.reshape(x.data, shape))
    orig = x.data.shape

    def rule(g):
        return (np.reshape(g, orig),)

    return _record(out, (x,), rule)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.transpose(axes))
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def rule(g):
        return (np.transpose(g, inverse),)

    return _record(out, (x,), rule)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] exceeds extent {x.shape[axis]} of {x.shape}")
    index = tuple(slice(None) if d != axis else slice(start, start + length) for d in range(x.ndim))
    out = Tensor(x.data[index])
    full_shape = x.data.shape

    def rule(g):
        grad = np.zeros(full_shape, dtype=g.dtype)
        grad[index] = g
        return (grad,)

    return _record(out, (x,), rule)


def take(x: Tensor, indices, axis: int) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(np.take(x.data, idx, axis=axis))
    full_shape = x.data.shape

    def rule(g):
        grad = np.zeros(full_shape, dtype=g.dtype)
        expanded = tuple(slice(None) if d != axis else idx for d in range(len(full_shape)))
        np.add.at(grad, expanded, g)
        return (grad,)

    return _record(out, (x,), rule)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    extents = [t.shape[axis] for t in tensors]
    offsets = list(itertools.accumulate(extents, initial=0))
    needs = [t.requires_grad for t in tensors]

    def rule(g):
        pieces = []
        for i, need in enumerate(needs):
            if not need:
                pieces.append(None)
                continue
            index = tuple(
                slice(None) if d != axis else slice(offsets[i], offsets[i + 1]) for d in range(g.ndim)
            )
            pieces.append(g[index])
        return tuple(pieces)

    return _record(out, tuple(tensors), rule)


def embedding(table: Tensor, indices) -> Tensor:
    """Row gather: out[..., :] = table[indices[...], :]."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and idx.min() < 0:
        # numpy would wrap a negative id to a row from the end, which the
        # grouped backward below does not sum with that row's other reads
        raise ShapeError(f"embedding ids must be non-negative, got {idx.min()}")
    out = Tensor(table.data[idx])
    table_shape = table.data.shape

    def rule(g):
        # a stable sort groups repeated ids, and one reduceat sums each group;
        # a row read once gets its gradient row unchanged
        flat = idx.reshape(-1)
        order = np.argsort(flat, kind="stable")
        ids = flat[order]
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        grad = np.zeros(table_shape, dtype=g.dtype)
        grad[ids[starts]] = np.add.reduceat(g.reshape(flat.size, *table_shape[1:])[order], starts, axis=0)
        return (grad,)

    return _record(out, (table,), rule)


# ---------------------------------------------------------------------------
# reductions and normalizations
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    y = exp / np.sum(exp, axis=axis, keepdims=True)
    out = Tensor(y)

    def rule(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        return ((g - inner) * y,)

    return _record(out, (x,), rule)


@functools.cache
def _norm_constants(dtype: np.dtype, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The width ``d``, ``LAYER_NORM_EPS`` and 1 as 0-d arrays of ``dtype``.
    They give the same bits as Python scalars, which numpy converts anew at
    every call, at more cost than a one-row layer norm's arithmetic."""
    return tuple(np.asarray(c, dtype=dtype) for c in (d, LAYER_NORM_EPS, 1.0))


def _normalize(x: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """``x`` normalized over its last axis, and the rule mapping the
    normalized array's gradient to ``x``'s. ``layer_norm`` and the fused
    sublayers of ``nn`` share it."""
    d, eps, one = _norm_constants(x.dtype, x.shape[-1])
    # add.reduce / d is np.mean's arithmetic without its Python-level wrapper
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = one / np.sqrt(var + eps)
    xhat = centered * inv

    def grad(g):
        m1 = np.add.reduce(g, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(g * xhat, axis=-1, keepdims=True) / d
        return inv * (g - m1 - xhat * m2)

    return xhat, grad


def layer_norm(x: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, with no affine."""
    xhat, grad = _normalize(x.data)
    return _record(Tensor(xhat), (x,), lambda g: (grad(g),))


def cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean next-token negative log-likelihood over masked-in positions.

    ``logits`` is [T, V]; ``targets`` length-T integer indices; ``mask`` a
    length-T boolean sequence selecting supervised positions. Log-sum-exp
    stabilized. Raises EmptyLossError when nothing is masked in.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [T, V] logits, got {logits.shape}")
    t_len, vocab = logits.shape
    idx = np.asarray(targets, dtype=np.int64)
    keep = np.asarray(mask, dtype=bool)
    if idx.shape != (t_len,) or keep.shape != (t_len,):
        raise ShapeError(
            f"targets/mask must be length {t_len}, got {idx.shape} and {keep.shape}"
        )
    if np.any((idx < 0) | (idx >= vocab)):
        bad = int(np.argmax((idx < 0) | (idx >= vocab)))
        raise ContractError(f"target index {idx[bad]} at position {bad} outside vocab of {vocab}")
    kept = int(keep.sum())
    if kept == 0:
        raise EmptyLossError("cross_entropy over a fully masked-out batch")
    peak = np.max(logits.data, axis=-1, keepdims=True)
    # the backward reuses these exponentials and their row sums
    exp = np.exp(logits.data - peak)
    sums = np.sum(exp, axis=-1, keepdims=True)
    lse = np.log(sums[:, 0]) + peak[:, 0]
    nll = lse - logits.data[np.arange(t_len), idx]
    out = Tensor(np.asarray(np.sum(nll * keep) / kept, dtype=logits.data.dtype))

    def rule(g):
        probs = exp / sums
        probs[np.arange(t_len), idx] -= 1.0
        probs *= (keep / kept)[:, None]
        return (probs * g,)

    return _record(out, (logits,), rule)
