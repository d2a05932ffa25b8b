"""Minimal dense-tensor math with reverse-mode autodiff and an SGD optimizer.

CPU-only. A Tensor wraps a numpy array, float64 unless it is given a float32
array, plus an optional gradient; ops keep their operands' dtype, down to a
0-d loss, and build a tape of backward closures that `backward()` replays in
reverse topological order, freeing each intermediate's gradient once its
closure has consumed it. A gradient takes its tensor's dtype. Only leaves,
such as parameters, keep gradients; they accumulate until an optimizer step
clears them, so several losses can be backpropagated before a single
parameter update. Prediction runs on float32 copies of the parameters, and
training on float32 casts (`cast`), one per parameter per SGD step; the
parameters, their gradients, the SGD step and the checkpoints stay float64.
So every parameter value stays within float32's range and is not NaN:
`read_checkpoint` and `sgd_step`, where values enter, refuse any other.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
FLOAT32_MAX = float(np.finfo(np.float32).max)


class ShapeMismatchError(ValueError):
    pass


class NonFiniteGradientError(RuntimeError):
    """Training diverged: a loss is not finite, or an SGD step would leave a
    parameter value NaN or beyond float32's range, from a non-finite
    gradient, an overflowing update or a value the parameter already held."""


def _outside_float32(x: np.ndarray) -> bool:
    """Whether `x` holds NaN, infinity or a magnitude above FLOAT32_MAX."""
    return not np.abs(x).max(initial=0.0) <= FLOAT32_MAX  # NaN compares False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = (data if isinstance(data, np.ndarray) and data.dtype == np.float32
                     else np.asarray(data, dtype=np.float64))
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def _accumulate(self, g, copy=False):
        # A gradient takes this tensor's dtype. A first `g` of that dtype is
        # adopted: ops hand over arrays they have just allocated, or pass
        # copy=True when g is or views one held elsewhere.
        if self.grad is None:
            self.grad = (np.array if copy else np.asarray)(g, dtype=self.data.dtype)
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
                node.grad = None


def _result(data, parents, backward_fn):
    out = Tensor(np.asarray(data))  # a 0-d result keeps its dtype
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
            break
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


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """np.matmul of two tensors of rank >= 2, broadcasting leading axes. A
    `bias` row, allowed with a weight matrix `b` (2-D), is added in place to
    the product in the same node; its gradient comes after a's and b's."""
    if (a.data.ndim < 2 or b.data.ndim < 2
            or a.data.shape[-1] != b.data.shape[-2]
            or bias is not None and (b.data.ndim != 2
                                     or bias.data.shape != b.data.shape[1:])):
        raise ShapeMismatchError(
            f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}"
            + ("" if bias is None else f" + {bias.data.shape}"))
    out = a.data @ b.data
    if bias is not None:
        out += bias.data

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
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))

    return _result(out, (a, b) if bias is None else (a, b, bias), bw)


def add(a: Tensor, b: Tensor, *more: Tensor) -> Tensor:
    """a + b + ..., broadcasting, summed left to right in one node."""
    terms = (a, b, *more)
    out = a.data + b.data
    for t in more:
        out = out + t.data

    def bw(g):
        for t in terms:
            if t.requires_grad:
                t._accumulate(_unbroadcast(g, t.data.shape), copy=True)

    return _result(out, terms, bw)


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or ndarray (no gradient through c)."""
    c = np.asarray(c, dtype=a.data.dtype)

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
        if a.requires_grad:  # g * (0.5(1 + t) + 0.5x(1 - t²)·c(1 + 3·0.044715x²))
            d_inner = 3 * 0.044715 * x
            d_inner *= x
            d_inner += 1.0
            d_inner *= _GELU_C
            dx = np.square(t)
            np.subtract(1.0, dx, out=dx)
            dx *= 0.5 * x
            dx *= d_inner
            np.add(t, 1.0, out=d_inner)
            d_inner *= 0.5
            dx += d_inner
            dx *= g
            a._accumulate(dx)

    return _result(out, (a,), bw)


def softmax_array(x: np.ndarray, axis: int = -1,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax of a float array, written into `out` (which
    may be `x`) or a new array, and returned; builds no tape node."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = softmax_array(a.data, axis)

    def bw(g):
        if a.requires_grad:
            a._accumulate(y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _result(y, (a,), bw)


# Per thread, dtype -> the flat array that tape-free attention writes its
# scores into. It grows to the most scores one call has needed and is kept:
# a fresh score array would be the largest block each pass frees, and glibc
# hands a freed heap top back to the OS, so the next pass would fault those
# pages in again. Per thread, because numpy releases the GIL in matmul.
_score_buffers = threading.local()


def _score_view(shape, dtype) -> np.ndarray:
    """A C-contiguous array of `shape` on the front of this thread's score
    buffer for `dtype`, which grows to hold it."""
    buffers = _score_buffers.__dict__
    count = math.prod(shape)
    buf = buffers.get(dtype)
    if buf is None or buf.size < count:
        buf = buffers[dtype] = np.empty(count, dtype)
    return buf[:count].reshape(shape)


def attention(qkv: Tensor, n_heads: int,
              cls_only: bool = False) -> tuple[Tensor, np.ndarray]:
    """Multi-head softmax(q kᵀ / sqrt(d_head)) v, as one tape node.

    `qkv` is the (..., T, 3·d) projection, its columns head-major (q0 k0 v0
    q1 ...). Returns the heads merged to (..., T, d) and the (..., H, T, T)
    probabilities, a plain array that is also all backward keeps. Heads are
    split and merged by views and the scores normalised in place, by the same
    ufuncs in the same order as the separate tape ops, so the results are the
    same to the bit.

    When `qkv` needs no gradient, the scores are written into this thread's
    score buffer, kept across calls, so the probabilities returned then stay
    valid only until the next such call in the same thread; copy them to
    keep them. With `cls_only`, position 0, the [CLS] token, is the one
    query, over the keys and values of every position, and the results are
    (..., 1, d) and (..., H, 1, T); its backward gives q a gradient at
    position 0 alone, and k and v one at every position. They are within
    rounding of row 0 of the full call, not the same to the bit: BLAS rounds
    a one-row q kᵀ product differently from row 0 of the T-row one.
    """
    *lead, T, d3 = qkv.data.shape
    dh = d3 // (3 * n_heads)
    scale = 1.0 / math.sqrt(dh)  # a Python float keeps float32 scores float32
    # (..., T, H, 3, dh) -> (3, ..., H, T, dh)
    split = qkv.data.reshape(*lead, T, n_heads, 3, dh)
    n = len(lead)
    to_heads = (n + 2, *range(n), n + 1, n, n + 3)
    q, k, v = split.transpose(to_heads)
    if cls_only:
        q = q[..., :1, :]
    rows = q.shape[-2]
    kt = np.swapaxes(k, -1, -2)
    if qkv.requires_grad:  # backward keeps p: a fresh array
        p = q @ kt
    else:
        p = np.matmul(q, kt, out=_score_view((*lead, n_heads, rows, T), q.dtype))
    p *= scale
    softmax_array(p, out=p)

    def bw(g):
        g = g.reshape(*lead, rows, n_heads, dh).swapaxes(-3, -2)
        ds = g @ np.swapaxes(v, -1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        # dq, dk and dv are views of dqkv's (..., T, H, 3, dh); from [CLS]
        # alone, q has no gradient past position 0
        dqkv = (np.zeros if cls_only else np.empty)(qkv.shape, qkv.data.dtype)
        dq, dk, dv = dqkv.reshape(split.shape).transpose(to_heads)
        np.matmul(ds, k, out=dq[..., :rows, :])
        np.matmul(np.swapaxes(q, -1, -2), ds, out=np.swapaxes(dk, -1, -2))
        np.matmul(np.swapaxes(p, -1, -2), g, out=dv)
        qkv._accumulate(dqkv)

    merged = (p @ v).swapaxes(-3, -2).reshape(*lead, rows, d3 // 3)
    return _result(merged, (qkv,), bw), p


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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """gain · (x - mean) / sqrt(var + 1e-5) + bias over the last axis.

    A mean is the sum over the axis divided by its length, as `np.mean`
    computes it, and the centred input is scaled in place into xhat, so the
    result is the same to the bit as the expression written out, with two
    fewer temporaries.
    """
    d = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= d
    # Allocated before the work arrays: allocated after them, a predict-short
    # sweep took more minor page faults at each of seeds 1, 2, 3 and 7 (6-7%
    # more at seed 2, 36-114% at the others, three invocations each), as
    # glibc trims the heap's free top and the next (n+1, T, d) pass faults
    # it back in. On predict-long the order moved the count either way.
    out = np.empty_like(x.data)
    xhat = x.data - mu
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= d
    istd = 1.0 / np.sqrt(var + 1e-5)
    xhat *= istd
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bw(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:  # istd·(dxhat - mean(dxhat) - xhat·mean(dxhat·xhat))
            dxhat = g * gain.data
            along = dxhat * xhat
            np.multiply(xhat, along.sum(axis=-1, keepdims=True) / d, out=along)
            dxhat -= dxhat.sum(axis=-1, keepdims=True) / d
            dxhat -= along
            dxhat *= istd
            x._accumulate(dxhat)

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
                table._accumulate(np.zeros_like(table.data))
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
                t._accumulate(g[tuple(idx)], copy=True)

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; by default swap the last two."""
    if axes is None:
        axes = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse), copy=True)

    return _result(a.data.transpose(axes), (a,), bw)


def cast(a: Tensor, dtype) -> Tensor:
    """`a` as a new array of `dtype`, as one tape node. Its gradient reaches
    `a` in `a`'s gradient dtype: a float64 parameter cast to float32 gets a
    float64 gradient."""
    def bw(g):
        if a.requires_grad:
            a._accumulate(g)

    return _result(a.data.astype(dtype), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(orig), copy=True)

    return _result(a.data.reshape(shape), (a,), bw)


def slice_rows(a: Tensor, index) -> Tensor:
    """`a.data[index]`, for a basic slice such as `np.s_[..., :1, :]` or a
    tuple of index arrays that names each element at most once, as the
    backward adds the gradient back with one scatter."""
    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a._accumulate(np.zeros_like(a.data))
            a.grad[index] += g

    return _result(a.data[index], (a,), bw)


def mean_of(tensors, count: int) -> Tensor:
    """Sum of a list of scalar tensors over `count`, as one tape node."""
    c = 1.0 / count

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
        rate, factor, every = self.learning_rate, self.decay_factor, self.decay_every
        if type(rate) is bool or not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {rate!r}")
        if type(factor) is bool or not 0 < factor <= 1:
            raise ValueError(f"decay_factor must be in (0, 1], got {factor!r}")
        if type(every) is not int or every <= 0:
            raise ValueError(f"decay_every must be a positive integer, got {every!r}")

    def effective_lr(self, step_count: int) -> float:
        return self.learning_rate * self.decay_factor ** (step_count // self.decay_every)


def sgd_step(params: dict, config: SgdConfig, step_count: int) -> None:
    """One SGD update: p -= lr(step) * p.grad for every parameter, in place,
    then zero grads.

    Parameters with no accumulated gradient are left untouched. Every
    would-be value, the update or else the current one, is checked before
    any is assigned, so a step that would leave one beyond float32's range
    or NaN raises NonFiniteGradientError and changes nothing.
    """
    stepped = {name: p for name, p in params.items() if p.grad is not None}
    lr = config.effective_lr(step_count)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        updated = {name: p.data - lr * p.grad for name, p in stepped.items()}
    for name, p in params.items():
        if _outside_float32(updated.get(name, p.data)):
            raise NonFiniteGradientError(
                f"parameter {name!r} would hold a value beyond float32's "
                f"range, or NaN, at learning rate {lr!r}")
    for name, p in stepped.items():
        p.data[...] = updated[name]
        p.grad = None


_CHECKPOINT_FORMAT, _CHECKPOINT_VERSION = "proctrack-params", 3


def save_checkpoint(params: dict, path, **fields) -> None:
    """Write `params` as one JSON header line, then each tensor's
    little-endian float64 bytes in C order, packed back to back in `params`
    order. The header holds the format, its version, the `fields`, the byte
    count after the line and a {name, shape, offset} record per tensor. It
    writes `path` + ".tmp", syncs it and renames it over `path`, so a failed
    save (which removes the temporary file) or an OS crash leaves the old
    file whole."""
    arrays = [np.asarray(p.data, dtype="<f8", order="C") for p in params.values()]
    records, offset = [], 0
    for name, arr in zip(params, arrays):
        records.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = {"format": _CHECKPOINT_FORMAT, "version": _CHECKPOINT_VERSION,
              **fields, "bytes": offset, "tensors": records}
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(header).encode("ascii") + b"\n")
            for arr in arrays:
                f.write(arr)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> dict:
    """The parameters of `read_checkpoint(path)`."""
    return read_checkpoint(path)[1]


def read_checkpoint(path) -> tuple[dict, dict]:
    """The header and the parameters saved by `save_checkpoint`, each
    parameter a writable array of its own; ValueError naming the first thing
    in the header or the bytes that is malformed: a header that is not JSON
    or is nested too deeply to read, a format or version not this one, a
    record without a string name, a shape of non-negative ints or an int
    offset, a repeated name, offsets that are not each tensor's bytes
    packed back to back, a byte count that is not the file's, or a value
    beyond float32's range, or NaN."""
    with open(path, "rb") as f:
        head, body = f.readline(), f.read()
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise ValueError(f"{path}: header line is not JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: header line is nested too deeply to read") from None
    if not (isinstance(header, dict) and header.get("format") == _CHECKPOINT_FORMAT):
        raise ValueError(f"{path}: not a {_CHECKPOINT_FORMAT} header")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {header.get('version')!r:.20}; "
                         f"this release reads only {_CHECKPOINT_VERSION}: train again")
    records, size = header.get("tensors"), header.get("bytes")
    if not isinstance(records, list) or type(size) is not int:
        raise ValueError(f"{path}: header needs a 'tensors' list and an int 'bytes'")
    if size != len(body):
        raise ValueError(f"{path}: header gives {size} tensor bytes, "
                         f"the file holds {len(body)}")
    names = set()
    for i, rec in enumerate(records):
        if not (isinstance(rec, dict) and isinstance(rec.get("name"), str)):
            raise ValueError(f"{path}: tensor record {i} is not an object with "
                             f"a string 'name': {rec!r:.80}")
        name, shape = rec["name"], rec.get("shape")
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"{path}: {name}: shape {shape!r:.40} is not a "
                             f"list of non-negative ints")
        if type(rec.get("offset")) is not int:
            raise ValueError(f"{path}: {name}: offset {rec.get('offset')!r:.40} "
                             f"is not an int")
        if name in names:
            raise ValueError(f"{path}: {name}: tensor name repeated")
        names.add(name)
    bounds = [rec["offset"] for rec in records] + [size]
    if bounds[0] != 0:
        raise ValueError(f"{path}: tensor bytes start at offset {bounds[0]}, not 0")
    params = {}
    for rec, start, end in zip(records, bounds, bounds[1:]):
        name, shape = rec["name"], rec["shape"]
        count = math.prod(shape)
        if end - start != 8 * count:
            raise ValueError(f"{path}: {name}: shape {shape} needs {8 * count} "
                             f"bytes, its offsets give {end - start}")
        arr = np.frombuffer(body, dtype="<f8", count=count,
                            offset=start).reshape(shape).astype(np.float64)
        if _outside_float32(arr):
            raise ValueError(f"{path}: {name}: holds a value beyond float32's "
                             f"range, or NaN")
        params[name] = Tensor(arr, requires_grad=True)
    return header, params
