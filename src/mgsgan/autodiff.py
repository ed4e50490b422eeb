"""Minimal reverse-mode differentiation over dense numpy tensors.

The computation graph is a tape rebuilt on every forward pass: each Tensor
produced by an op records its parent tensors and a vector-Jacobian closure,
and carries a monotonically increasing creation index. Because an op can only
consume tensors that already exist, sorting reachable nodes by that index
yields a topological order for free; `backward` walks it once in reverse.

All ops validate operand shapes (raising ShapeError naming both shapes) and
reject non-finite outputs (NumericError), so NaN/Inf cannot propagate
silently. Broadcasting is restricted: two operands must have identical
shapes, or one shape must be a trailing suffix of the other (which covers
scalars and per-feature bias vectors, i.e. broadcasting over leading batch
dimensions only).

An op computes in the dtype of its operands, f64 by default: a scalar that
meets a tensor becomes a constant of that tensor's dtype, and every buffer an
op allocates takes its operands' dtype, so f32 operands give f32 outputs and
f32 gradients.

An op's output keeps the memory order of the formulation it replaced (for
elementwise ops, numpy's keep-order layout of the operands), because later
reductions sum in memory order and a different layout changes their bits.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, NumericError, ShapeError

_counter = itertools.count()


class Tensor:
    """Dense n-d array participating in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_id")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        if not isinstance(data, np.ndarray):  # a numpy scalar keeps its dtype
            data = np.asarray(data, dtype=getattr(data, "dtype", np.float64))
        self.data = data
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp
        self._id = next(_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Leaf tensor sharing this buffer, cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars are wrapped as constant tensors of this one's dtype.
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0, self))

    def __sub__(self, other):
        return add(self, -_wrap(other, self))

    def __rsub__(self, other):
        return add(_wrap(other, self), -self)


def param(data, dtype=np.float64) -> Tensor:
    """Trainable leaf."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def const(data, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=False)


def _wrap(x, like: Tensor) -> Tensor:
    """x itself if it is a tensor, else a constant of like's dtype: a 0-d f64
    array would promote an f32 operand to f64."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    # One-pass screen; arr.sum() is non-finite whenever any element is (or on
    # overflow, which the full scan then rules out).
    if not np.isfinite(arr.sum()) and not np.all(np.isfinite(arr)):
        raise NumericError(f"{op}: non-finite values in output")
    return arr


_recording = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Ops run inside the block record no tape: every output is a plain constant.

    The forward values are the same bits; nothing is kept for a backward pass.
    """
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


def _make(data, parents, vjp, op: str) -> Tensor:
    _check_finite(data, op)
    rg = _recording and any(p.requires_grad or p._vjp is not None for p in parents)
    if not rg:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)


# ---------------------------------------------------------------------------
# broadcasting helpers (suffix rule only)

def _suffix_check(a: Tensor, b: Tensor, op: str):
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    small, big = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if len(small) == len(big) or (small and big[len(big) - len(small):] != small):
        raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    lead = g.ndim - len(shape)
    return g.sum(axis=tuple(range(lead)))


# ---------------------------------------------------------------------------
# elementwise and linear ops

def add(a: Tensor, b: Tensor) -> Tensor:
    _suffix_check(a, b, "add")
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _suffix_check(a, b, "mul")
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), vjp, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), vjp, "matmul")


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    # For 0 <= slope <= 1, max(x, slope*x) picks slope*x exactly where x < 0
    # (signed zeros included) and the backward factor is 1 or slope: the bits
    # and keep-order layout of np.where(x < 0, slope*x, x), at a fraction of its cost.
    if not 0.0 <= slope <= 1.0:
        raise ContractError(f"leaky_relu: slope must lie in [0, 1], got {slope}")
    nonneg = x.data >= 0
    out = np.maximum(x.data, slope * x.data)

    def vjp(g):
        return (np.multiply(g, np.maximum(nonneg, slope, dtype=g.dtype)),)

    return _make(out, (x,), vjp, "leaky_relu")


def relu(x: Tensor) -> Tensor:
    return leaky_relu(x, slope=0.0)


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid_stable(x.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), vjp, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _make(out, (x,), vjp, "tanh")


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)

    def vjp(g):
        return (g / x.data,)

    return _make(out, (x,), vjp, "log")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (x,), vjp, "softmax")


def clamp(x: Tensor, lower, upper) -> Tensor:
    """Elementwise clamp; bounds are constants (no gradient flows to them).

    Subgradient convention: identity strictly inside the interval, zero
    elsewhere, so a degenerate interval pins the output with zero gradient.
    """
    lo = np.asarray(lower, dtype=x.data.dtype)
    hi = np.asarray(upper, dtype=x.data.dtype)
    if np.any(lo > hi):
        raise ContractError("clamp: lower bound exceeds upper bound")
    out = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)

    def vjp(g):
        return (g * inside,)

    return _make(out, (x,), vjp, "clamp")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return _make(out, (x,), vjp, "reshape")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return _make(out, tuple(tensors), vjp, "concat")


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Row-wise pick: out[i] = x[i, index[i]] for a 2-d tensor."""
    if x.ndim != 2:
        raise ShapeError(f"gather: expected 2-d tensor, got {x.shape} with index {np.shape(index)}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != (x.shape[0],):
        raise ShapeError(f"gather: index shape {idx.shape} does not match rows of {x.shape}")
    rows = np.arange(x.shape[0])
    out = x.data[rows, idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return (gx,)

    return _make(out, (x,), vjp, "gather")


def permute_rows(x: Tensor, perm: np.ndarray) -> Tensor:
    """out[i] = x[perm[i]] for a permutation perm of x's rows."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != x.shape[:1]:
        raise ShapeError(f"permute_rows: permutation shape {perm.shape} does not match {x.shape}")
    if not np.array_equal(np.sort(perm), np.arange(perm.size)):
        raise ContractError("permute_rows: index is not a permutation of the rows")
    out = x.data[perm]

    def vjp(g):
        gx = np.empty(g.shape, dtype=g.dtype)
        gx[perm] = g
        return (gx,)

    return _make(out, (x,), vjp, "permute_rows")


def sum_(x: Tensor, axis=None) -> Tensor:
    out = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _make(np.asarray(out), (x,), vjp, "sum")


def mean_(x: Tensor, axis=None) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    return mul(sum_(x, axis=axis), _wrap(1.0 / n, x))


# ---------------------------------------------------------------------------
# 1-d convolution pair (explicit stride, symmetric zero padding)

def _conv_out_len(length: int, k: int, stride: int, pad: int) -> int:
    return (length + 2 * pad - k) // stride + 1


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, t: int) -> np.ndarray:
    # x (B, C, L) -> contiguous (B*T, C*K) patch matrix, BLAS-friendly
    b, c, length = x.shape
    if pad:
        buf = np.zeros((b, c, length + 2 * pad), dtype=x.dtype)
        buf[:, :, pad : pad + length] = x
        x = buf
    sb, sc, sl = x.strides
    win = as_strided(x, shape=(b, t, c, k), strides=(sb, stride * sl, sc, sl), writeable=False)
    return np.ascontiguousarray(win).reshape(b * t, c * k)


def _col2im(mat: np.ndarray, b: int, c: int, k: int, t: int,
            length: int, stride: int, pad: int) -> np.ndarray:
    # adjoint of _im2col: (B*T, C*K) scattered back to (B, C, length)
    tmp = mat.reshape(b, t, c, k).transpose(0, 2, 1, 3)
    buf = np.zeros((b, c, length + 2 * pad), dtype=mat.dtype)
    for j in range(k):
        buf[:, :, j : j + stride * t : stride] += tmp[:, :, :, j]
    return buf[:, :, pad : pad + length] if pad else buf


def _bot(mat: np.ndarray, b: int, t: int) -> np.ndarray:
    # (B*T, O) -> (B, O, T)
    return mat.reshape(b, t, -1).transpose(0, 2, 1)


def _flat_bt(x: np.ndarray) -> np.ndarray:
    # (B, O, T) -> contiguous (B*T, O)
    b, o, t = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1)).reshape(b * t, o)


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of (B, C_in, L) with kernels (C_out, C_in, K)."""
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d: incompatible shapes {x.shape} and {w.shape}")
    o, c, k = w.shape
    if x.shape[2] + 2 * pad < k:
        raise ShapeError(f"conv1d: kernel {w.shape} longer than padded input {x.shape}")
    b = x.shape[0]
    t = _conv_out_len(x.shape[2], k, stride, pad)
    col = _im2col(x.data, k, stride, pad, t)
    w2 = w.data.reshape(o, c * k)
    out = _bot(col @ w2.T, b, t)
    parents = [x, w]
    if bias is not None:
        if bias.shape != (o,):
            raise ShapeError(f"conv1d: bias shape {bias.shape} does not match kernels {w.shape}")
        out = out + bias.data[None, :, None]
        parents.append(bias)

    def vjp(g):
        g2 = _flat_bt(g)
        gx = _col2im(g2 @ w2, b, c, k, t, x.shape[2], stride, pad)
        gw = (g2.T @ col).reshape(o, c, k)
        if bias is not None:
            return gx, gw, g.sum(axis=(0, 2))
        return gx, gw

    return _make(out, tuple(parents), vjp, "conv1d")


def conv1d_transpose(y: Tensor, w: Tensor, bias: Tensor | None = None,
                     stride: int = 1, pad: int = 0,
                     output_length: int | None = None) -> Tensor:
    """Adjoint of conv1d with the same kernels/stride/pad.

    Maps (B, C_out, T) back to (B, C_in, L); kernels keep the conv1d
    orientation (C_out, C_in, K). `output_length` selects L when the
    conv windowing did not tile the input exactly (any L with
    (L + 2*pad - K)//stride + 1 == T is valid).
    """
    if y.ndim != 3 or w.ndim != 3 or y.shape[1] != w.shape[0]:
        raise ShapeError(f"conv1d_transpose: incompatible shapes {y.shape} and {w.shape}")
    o, c, k = w.shape
    b, _, t = y.shape
    length = output_length if output_length is not None else stride * (t - 1) + k - 2 * pad
    if length < 1 or _conv_out_len(length, k, stride, pad) != t:
        raise ShapeError(
            f"conv1d_transpose: output length {length} inconsistent with input {y.shape}"
        )
    w2 = w.data.reshape(o, c * k)
    y2 = _flat_bt(y.data)
    out = _col2im(y2 @ w2, b, c, k, t, length, stride, pad)
    parents = [y, w]
    if bias is not None:
        if bias.shape != (c,):
            raise ShapeError(f"conv1d_transpose: bias shape {bias.shape} does not match kernels {w.shape}")
        out = out + bias.data[None, :, None]
        parents.append(bias)

    def vjp(g):
        gcol = _im2col(g, k, stride, pad, t)
        gy = _bot(gcol @ w2.T, b, t)
        gw = (y2.T @ gcol).reshape(o, c, k)
        if bias is not None:
            return gy, gw, g.sum(axis=(0, 2))
        return gy, gw

    return _make(out, tuple(parents), vjp, "conv1d_transpose")


# ---------------------------------------------------------------------------
# expert banks: a batch sorted into N row segments, segment j through weight j
#
# `bounds` (N+1,) holds the segment offsets: rows bounds[j]:bounds[j+1] belong
# to expert j, and an empty segment is skipped. Each op makes one GEMM per
# segment on the operands, shapes and layouts that expert j's own matmul or
# conv1d_transpose would see for those rows, so every row gets the bits its
# expert alone would give it. Weight gradients come back stacked, with zeros
# for the experts of empty segments.

def _bank_segments(bounds, n: int, rows: int, op: str):
    """(expert, start, stop) of each non-empty segment, and each row's expert."""
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    if bounds.shape != (n + 1,) or bounds[0] != 0 or bounds[-1] != rows or np.any(sizes < 0):
        raise ShapeError(f"{op}: segment bounds {bounds.tolist()} do not split {rows} rows "
                         f"among {n} experts")
    segs = [(j, int(bounds[j]), int(bounds[j + 1])) for j in np.flatnonzero(sizes)]
    return segs, np.repeat(np.arange(n), sizes)


def bank_dense(x: Tensor, w: Tensor, bias: Tensor, bounds) -> Tensor:
    """x[rows of j] @ w[j] + bias[j] for (B, I) rows, (N, I, O) weights, (N, O) biases."""
    if (x.ndim != 2 or w.ndim != 3 or x.shape[1] != w.shape[1]
            or bias.shape != (w.shape[0], w.shape[2])):
        raise ShapeError(f"bank_dense: incompatible shapes {x.shape}, {w.shape} and {bias.shape}")
    segs, owner = _bank_segments(bounds, w.shape[0], x.shape[0], "bank_dense")
    dtype = np.result_type(x.data, w.data)
    out = np.empty((x.shape[0], w.shape[2]), dtype=dtype)
    for j, s, e in segs:
        np.matmul(x.data[s:e], w.data[j], out=out[s:e])
    out = out + bias.data[owner]

    def vjp(g):
        # The bank's input is the constant noise, whose gradient nobody reads.
        gx = np.empty(x.shape, dtype=dtype) if x.requires_grad else None
        gw = np.empty(w.shape, dtype=dtype)
        gw[np.bincount(owner, minlength=w.shape[0]) == 0] = 0.0  # the experts with no rows
        gb = np.zeros(bias.shape, dtype=dtype)
        for j, s, e in segs:
            if gx is not None:
                np.matmul(g[s:e], w.data[j].T, out=gx[s:e])
            np.matmul(x.data[s:e].T, g[s:e], out=gw[j])
            gb[j] = g[s:e].sum(axis=0)
        return gx, gw, gb

    return _make(out, (x, w, bias), vjp, "bank_dense")


def bank_convt(y: Tensor, w: Tensor, bias: Tensor, bounds, stride: int = 1, pad: int = 0,
               output_length: int | None = None) -> Tensor:
    """conv1d_transpose of y[rows of j] with kernels w[j] plus bias[j].

    The kernels are (N, C_out, C_in, K) in conv1d_transpose's orientation and
    the biases (N, C_in); (B, C_out, T) rows map to (B, C_in, L).
    """
    if (y.ndim != 3 or w.ndim != 4 or y.shape[1] != w.shape[1]
            or bias.shape != (w.shape[0], w.shape[2])):
        raise ShapeError(f"bank_convt: incompatible shapes {y.shape}, {w.shape} and {bias.shape}")
    n, o, c, k = w.shape
    b, _, t = y.shape
    length = output_length if output_length is not None else stride * (t - 1) + k - 2 * pad
    if length < 1 or _conv_out_len(length, k, stride, pad) != t:
        raise ShapeError(f"bank_convt: output length {length} inconsistent with input {y.shape}")
    segs, owner = _bank_segments(bounds, n, b, "bank_convt")
    w2 = w.data.reshape(n, o, c * k)
    y2 = _flat_bt(y.data)
    dtype = np.result_type(y2, w2)
    cols = np.empty((b * t, c * k), dtype=dtype)
    for j, s, e in segs:
        np.matmul(y2[s * t : e * t], w2[j], out=cols[s * t : e * t])
    out = _col2im(cols, b, c, k, t, length, stride, pad) + bias.data[owner][:, :, None]

    def vjp(g):
        gcol = _im2col(g, k, stride, pad, t)
        gy2 = np.empty((b * t, o), dtype=dtype)
        gw = np.zeros(w.shape, dtype=dtype)
        gb = np.zeros(bias.shape, dtype=dtype)
        for j, s, e in segs:
            rows = slice(s * t, e * t)
            np.matmul(gcol[rows], w2[j].T, out=gy2[rows])
            np.matmul(y2[rows].T, gcol[rows], out=gw[j].reshape(o, c * k))
            gb[j] = g[s:e].sum(axis=(0, 2))
        return _bot(gy2, b, t), gw, gb

    return _make(out, (y, w, bias), vjp, "bank_convt")


# ---------------------------------------------------------------------------
# batch normalization (fused op; biased variance)

def _bn_axes(x: Tensor):
    if x.ndim == 2:
        return (0,), (1, -1)
    if x.ndim == 3:
        return (0, 2), (1, -1, 1)
    raise ShapeError(f"batch_norm: expected 2-d or 3-d input, got shape {x.shape}")


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
               stats: dict | None = None) -> Tensor:
    """Train-mode normalization over the batch (and length) axes.

    If `stats` is given, the per-feature batch "mean" and (biased) "var" are
    stored in it, each equal bit for bit to np.mean / np.var over the axes.
    """
    axes, view = _bn_axes(x)
    if x.shape[0] < 2:
        raise ContractError("batch_norm: train mode needs batch size >= 2")
    n = x.size // x.shape[1]
    # The same steps np.mean and np.var take, with the centred input shared.
    mu = x.data.sum(axis=axes, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=axes, keepdims=True) / n
    if stats is not None:
        stats["mean"] = mu.reshape(-1)
        stats["var"] = var.reshape(-1)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gview = gamma.data.reshape([x.shape[1] if v == -1 else v for v in view])
    bview = beta.data.reshape([x.shape[1] if v == -1 else v for v in view])
    out = gview * xhat + bview

    def vjp(g):
        gsum = g.sum(axis=axes, keepdims=True)
        gxsum = (g * xhat).sum(axis=axes, keepdims=True)
        dx = gview * inv * (g - gsum / n - xhat * gxsum / n)
        return dx, gxsum.reshape(gamma.shape), gsum.reshape(beta.shape)

    return _make(out, (x, gamma, beta), vjp, "batch_norm")


def batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                    running_mean: np.ndarray, running_var: np.ndarray,
                    eps: float = 1e-5) -> Tensor:
    """Eval-mode normalization with fixed running statistics, taken in x's dtype."""
    _, view = _bn_axes(x)
    shape = [x.shape[1] if v == -1 else v for v in view]
    mean = np.asarray(running_mean, dtype=x.data.dtype).reshape(shape)
    inv = 1.0 / np.sqrt(np.asarray(running_var, dtype=x.data.dtype).reshape(shape) + eps)
    xhat = (x.data - mean) * inv
    gview = gamma.data.reshape(shape)
    out = gview * xhat + beta.data.reshape(shape)
    axes, _ = _bn_axes(x)

    def vjp(g):
        return g * gview * inv, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _make(out, (x, gamma, beta), vjp, "batch_norm_eval")


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor):
    """Populate .grad on every requires_grad leaf reachable from `loss`."""
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    # Collect the reachable subgraph; creation ids give a topological order.
    nodes = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._id in nodes:
            continue
        nodes[t._id] = t
        stack.extend(t._parents)
    grads = {loss._id: np.ones_like(loss.data)}
    for nid in sorted(nodes, reverse=True):
        t = nodes[nid]
        g = grads.pop(nid, None)
        if g is None:
            continue
        if t._vjp is not None:
            for parent, pg in zip(t._parents, t._vjp(g)):
                if pg is None:  # a VJP may skip a constant parent
                    continue
                acc = grads.get(parent._id)
                grads[parent._id] = pg if acc is None else acc + pg
        elif t.requires_grad:
            # stored, not copied: no VJP, optimizer or update writes into a gradient
            t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# op registry (the gradient test suite iterates it)

OP_KINDS = {
    "add": add,
    "mul": mul,
    "matmul": matmul,
    "conv1d": conv1d,
    "conv1d_transpose": conv1d_transpose,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "log": log,
    "softmax": softmax,
    "reshape": reshape,
    "concat": concat,
    "clamp": clamp,
    "gather": gather,
    "sum": sum_,
    "mean": mean_,
    "batch_norm": batch_norm,
    "batch_norm_eval": batch_norm_eval,
    "permute_rows": permute_rows,
    "bank_dense": bank_dense,
    "bank_convt": bank_convt,
}
