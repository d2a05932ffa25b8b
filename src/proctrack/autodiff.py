"""Minimal dense-tensor math with reverse-mode autodiff and an SGD optimizer.

Everything is float64 and CPU-only. A Tensor wraps a numpy array plus an
optional gradient; ops build a tape of backward closures that `backward()`
replays in reverse topological order. Gradients accumulate additively until
an optimizer step clears them, so several losses can be backpropagated before
a single parameter update.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)


class ShapeMismatchError(ValueError):
    pass


class NonFiniteGradientError(RuntimeError):
    pass


class Tensor:
    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _result(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul of two tensors of rank >= 2, broadcasting leading axes."""
    if (a.data.ndim < 2 or b.data.ndim < 2
            or a.data.shape[-1] != b.data.shape[-2]):
        raise ShapeMismatchError(
            f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}"
        )

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2:  # a weight matrix: one GEMM over every row of a
                b._accumulate(a.data.reshape(-1, a.data.shape[-1]).T
                              @ g.reshape(-1, g.shape[-1]))
            else:
                b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g,
                                           b.data.shape))

    return _result(a.data @ b.data, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a weight matrix w and a bias row b, as one tape node.

    The bias is added in place to the product; the gradients are those of
    `matmul` followed by `add`, in the same operand order.
    """
    if (x.data.ndim < 2 or w.data.ndim != 2
            or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeMismatchError(
            f"affine shapes incompatible: {x.data.shape} x {w.data.shape} "
            f"+ {b.data.shape}")
    out = x.data @ w.data
    out += b.data

    def bw(g):
        if x.requires_grad:
            x._accumulate(_unbroadcast(g @ w.data.T, x.data.shape))
        if w.requires_grad:
            w._accumulate(x.data.reshape(-1, x.data.shape[-1]).T
                          @ g.reshape(-1, g.shape[-1]))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(out, (x, w, b), bw)


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or ndarray (no gradient through c)."""
    c = np.asarray(c, dtype=np.float64)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * c, a.data.shape))

    return _result(a.data * c, (a,), bw)


def gelu(a: Tensor) -> Tensor:
    """0.5·x·(1 + tanh(c·(x + 0.044715·x³))), computed in two buffers.

    Each in-place step applies the same ufunc to the same operands as the
    expression written out, except that halving moves last, which is exact
    outside the subnormal range; so the result is the same to the bit.
    """
    x = a.data
    t = 0.044715 * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def bw(g):
        if a.requires_grad:
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
            a._accumulate(g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner))

    return _result(out, (a,), bw)


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax of a plain array; builds no tape node."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = softmax_array(a.data, axis)

    def bw(g):
        if a.requires_grad:
            a._accumulate(y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _result(y, (a,), bw)


def attention(qkv: Tensor, scale: float) -> tuple[Tensor, np.ndarray]:
    """softmax(q kᵀ · scale) v over the last two axes, as one tape node.

    `qkv` stacks q, k and v on axis 0. Returns the output and the attention
    probabilities, a plain array that is also all backward keeps. The score
    array is allocated once and normalised in place, by the same ufuncs in
    the same order as `matmul`, `scale` and `softmax`, so the results are the
    same to the bit.
    """
    q, k, v = qkv.data
    p = q @ np.swapaxes(k, -1, -2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bw(g):
        ds = g @ np.swapaxes(v, -1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        qkv._accumulate(np.stack((
            ds @ k, np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2),
            np.swapaxes(p, -1, -2) @ g)))

    return _result(p @ v, (qkv,), bw), p


def cross_entropy(logits: Tensor, gold) -> Tensor:
    """-log_softmax(logits)[gold], summed over the rows of (..., C) logits.

    `gold` holds one class index per row: an int for 1-D logits, else an
    integer array of the leading shape.
    """
    x = logits.data
    gold = np.asarray(gold)
    if x.ndim < 1 or gold.shape != x.shape[:-1]:
        raise ShapeMismatchError(
            f"cross_entropy needs one gold index per row of logits {x.shape}, "
            f"got shape {gold.shape}")
    n_classes = x.shape[-1]
    if gold.size and (gold.min() < 0 or gold.max() >= n_classes):
        raise IndexError(
            f"gold index out of range for {n_classes} classes: {gold.tolist()}")
    shifted = (x - x.max(axis=-1, keepdims=True)).reshape(-1, n_classes)
    rows, cols = np.arange(shifted.shape[0]), gold.ravel()
    log_z = np.log(np.exp(shifted).sum(axis=-1))

    def bw(g):
        if logits.requires_grad:
            d = np.exp(shifted - log_z[:, None])
            d[rows, cols] -= 1.0
            logits._accumulate(g * d.reshape(x.shape))

    return _result((log_z - shifted[rows, cols]).sum(), (logits,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """gain · (x - mean) / sqrt(var + eps) + bias over the last axis.

    A mean is the sum over the axis divided by its length, as `np.mean`
    computes it, and the centred input is scaled in place into xhat, so the
    result is the same to the bit as the expression written out, with two
    fewer temporaries.
    """
    d = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= d
    # Allocated before the work arrays: allocated after them, it cost about
    # 30% more minor page faults per predict-long sweep, as glibc trims the
    # heap's free top and the next (n+1, T, d) pass faults it back in.
    out = np.empty_like(x.data)
    xhat = x.data - mu
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= d
    istd = 1.0 / np.sqrt(var + eps)
    xhat *= istd
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bw(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            dx = istd * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            x._accumulate(dx)

    return _result(out, (x, gain, bias), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Rows `ids` of `table`, such as token vectors or the logit rows a loss
    scores; repeated ids add their gradients."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of bounds for table with {table.data.shape[0]} rows"
        )

    def bw(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _result(table.data[ids], (table,), bw)


def concat(tensors, axis: int = 1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; by default swap the last two."""
    if axes is None:
        axes = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return _result(a.data.transpose(axes), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(orig))

    return _result(a.data.reshape(shape), (a,), bw)


def slice_rows(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """a[start:stop] along `axis`."""
    idx = (slice(None),) * (axis % a.data.ndim) + (slice(start, stop),)

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

    return _result(a.data[idx], (a,), bw)


def mean_of(tensors, count: int | None = None) -> Tensor:
    """Sum of a list of scalar tensors over `count` (by default, over how
    many there are), as one tape node."""
    c = 1.0 / (len(tensors) if count is None else count)

    def bw(g):
        for t in tensors:
            if t.requires_grad:
                t._accumulate(g * c)

    return _result(sum(t.data for t in tensors) * c, tuple(tensors), bw)


@dataclass
class SgdConfig:
    learning_rate: float
    decay_factor: float = 1.0
    decay_every: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.decay_factor <= 1:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.decay_every <= 0:
            raise ValueError("decay_every must be a positive integer")

    def effective_lr(self, step_count: int) -> float:
        return self.learning_rate * self.decay_factor ** (step_count // self.decay_every)


def sgd_step(params: dict, config: SgdConfig, step_count: int) -> None:
    """One SGD update: p -= lr(step) * p.grad for every parameter, then zero grads.

    Parameters with no accumulated gradient are left untouched. Every gradient
    is checked before any is applied, so a non-finite one leaves all
    parameters and gradients as they were.
    """
    stepped = {name: p for name, p in params.items() if p.grad is not None}
    for name, p in stepped.items():
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")
    lr = config.effective_lr(step_count)
    for p in stepped.values():
        p.data -= lr * p.grad
        p.grad = None


def save_checkpoint(params: dict, path) -> None:
    blob = {
        name: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
        for name, p in params.items()
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(blob, f)


def load_checkpoint(path) -> dict:
    """Parameters saved by `save_checkpoint`; ValueError naming the first
    record that is not a flat list of finite numbers filling its shape."""
    with open(path, encoding="utf-8") as f:
        blob = json.load(f)
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: expected an object of named tensors")
    params = {}
    for name, rec in blob.items():
        if not (isinstance(rec, dict) and {"shape", "data"} <= rec.keys()):
            raise ValueError(f"{path}: {name}: expected a record with "
                             f"'shape' and 'data'")
        shape, flat = rec["shape"], rec["data"]
        if not (isinstance(shape, list) and isinstance(flat, list)
                and all(type(n) is int and n >= 0 for n in shape)
                and math.prod(shape) == len(flat)):
            raise ValueError(f"{path}: {name}: data does not fit shape {shape!r}")
        try:
            arr = np.asarray(flat, dtype=np.float64)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 1:
            raise ValueError(f"{path}: {name}: data is not a flat list of numbers")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: {name}: data holds NaN or infinity")
        params[name] = Tensor(arr.reshape(shape), requires_grad=True, name=name)
    return params
