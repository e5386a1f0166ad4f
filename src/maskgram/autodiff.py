"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Every operation's vector-Jacobian product is written by hand; the op set is
closed (exactly what the transformer blocks, losses, and encoders need) and
each VJP is validated against central finite differences in the test suite.

Gradients only flow while `grad_enabled()` is true; wrap inference code in
`no_grad()` to skip building the graph entirely.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

_GRAD_ENABLED = [True]


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


@contextlib.contextmanager
def no_grad():
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


class Tensor:
    """Array node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents: Sequence["Tensor"], backward) -> "Tensor":
        needs = grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, seed=None) -> None:
        """Accumulate gradients of self (a scalar unless `seed` is given) into the
        leaves of its graph; intermediate tensors keep no `.grad`."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.asarray(seed, dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # free intermediate grads and the graph as we go; only leaves keep grads
                node.grad = None
                node._backward = None
                node._parents = ()

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to t.grad. The first gradient is stored as given, which may be a
    view or an array another tensor holds too, so a stored gradient is never
    written in place: each later one replaces it with a new sum. For the same
    reason no VJP writes into the `g` it is handed."""
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# Row-wise forward kernels (softmax, log-softmax, layer norm, GELU) walk their
# input in 2-D row blocks of at most this many elements, 1 MiB of float64, so
# each block's temporaries stay in L2 instead of streaming multi-MB arrays
# through memory once per numpy call. An array of at most one block runs as
# one call, as before. Blocks of 1 << 14 elements made `maskgram sample
# --beams 16 --threads 2` 0.80x as fast on a 2-core machine: its two sampling
# threads contend for the interpreter lock over the extra per-block calls.
# Kernels keep their temporaries few: a GELU that freed four 1 MiB temporaries
# after allocating its output made glibc trim a sampling thread's heap on
# every call (95K minor faults per 8-row `sample_batch` at `--threads 2`).
_BLOCK_ELEMS = 1 << 17


def _row_blocks(kernel, x: np.ndarray, *outs: np.ndarray) -> None:
    """Run `kernel(x_rows, *out_rows)` over row blocks of x's last axis.

    Each output has x's leading shape and is written in place; a row's values
    do not depend on the blocking. Arrays of at most one block, and arrays
    that are not C-contiguous, are passed whole.
    """
    width = max(x.shape[-1], 1)
    step = max(_BLOCK_ELEMS // width, 1)
    rows = x.size // width
    if rows <= step or not x.flags.c_contiguous:
        kernel(x, *outs)
        return
    x = x.reshape(rows, width)
    outs = [o.reshape(rows, -1) for o in outs]
    for start in range(0, rows, step):
        block = slice(start, start + step)
        kernel(x[block], *(o[block] for o in outs))


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def pow_const(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    out_data = a.data**exponent

    def backward(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    return Tensor._make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / out_data)

    return Tensor._make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return Tensor._make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (a,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu_rows(x, out, x2=None, t=None):
    """GELU of a row block into `out`; x2 and t are kept when given."""
    x2 = np.multiply(x, x, out=x2)
    np.multiply(_GELU_A, x2, out=out)
    out += 1.0
    t = np.multiply(_GELU_C, x, out=t)
    t *= out
    np.tanh(t, out=t)
    np.multiply(0.5, x, out=out)
    out *= t + 1.0


def gelu(a) -> Tensor:
    """GELU, tanh approximation (smooth everywhere, finite-difference friendly)."""
    a = as_tensor(a)
    x = a.data
    out_data = np.empty_like(x)
    kept = (np.empty_like(x), np.empty_like(x)) if grad_enabled() and a.requires_grad else ()
    _row_blocks(_gelu_rows, x, out_data, *kept)
    x2, t = kept or (None, None)

    def backward(g):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2), in d plus one scratch
        d = x2 * (3.0 * _GELU_A)
        d += 1.0
        d *= _GELU_C
        s = t * t
        np.subtract(1.0, s, out=s)
        d *= s
        d *= x
        d *= 0.5
        np.add(t, 1.0, out=s)
        s *= 0.5
        d += s
        d *= g
        _accumulate(a, d)

    return Tensor._make(out_data, (a,), backward)


# -- shape manipulation ------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor._make(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out_data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return Tensor._make(out_data, (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.swapaxes(ax1, ax2)

    def backward(g):
        _accumulate(a, g.swapaxes(ax1, ax2))

    return Tensor._make(out_data, (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            _accumulate(part, g[tuple(idx)])

    return Tensor._make(out_data, parts, backward)


def _getitem(a: Tensor, key) -> Tensor:
    out_data = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] += g
        _accumulate(a, full)

    return Tensor._make(out_data, (a,), backward)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = np.broadcast_to(a.data, shape)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))

    return Tensor._make(out_data, (a,), backward)


# -- reductions ----------------------------------------------------------------


def _restore_axes(g: np.ndarray, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, in_shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, in_shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        _accumulate(a, _restore_axes(g, a.data.shape, axis, keepdims))

    return Tensor._make(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / max(out_data.size, 1)

    def backward(g):
        _accumulate(a, _restore_axes(g, a.data.shape, axis, keepdims) / count)

    return Tensor._make(out_data, (a,), backward)


# -- linear algebra -------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias, with weight (in_features, out_features) and bias
    (out_features,).

    The forward product keeps numpy's stacked matmul, one GEMM per leading
    index, so a row's bytes do not depend on the batch size (a GEMM over the
    flattened rows can round its edge columns differently as the row count
    changes). The VJPs flatten the leading axes and run one GEMM each.
    """
    x = as_tensor(x)
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, (g2 @ weight.data.T).reshape(x.data.shape))
        if weight.requires_grad:
            _accumulate(weight, x.data.reshape(-1, x.data.shape[-1]).T @ g2)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g2.sum(axis=0))

    return Tensor._make(out_data, parents, backward)


# -- softmax family --------------------------------------------------------------


def _softmax_rows(x, out):
    np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)


def _log_softmax_rows(x, out, soft=None):
    """Log-softmax into `out`; `soft` receives its exp when given."""
    np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    e = np.exp(out, out=soft)
    out -= np.log(e.sum(axis=-1, keepdims=True))
    if soft is not None:
        np.exp(out, out=soft)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    x = a.data.swapaxes(axis, -1)  # a view; only a last axis gets blocked
    out_data = np.empty_like(x)
    _row_blocks(_softmax_rows, x, out_data)
    out_data = out_data.swapaxes(axis, -1)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, out_data * (g - dot))

    return Tensor._make(out_data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    x = a.data.swapaxes(axis, -1)
    out_data, soft = np.empty_like(x), np.empty_like(x)
    _row_blocks(_log_softmax_rows, x, out_data, soft)
    out_data, soft = out_data.swapaxes(axis, -1), soft.swapaxes(axis, -1)

    def backward(g):
        _accumulate(a, g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (a,), backward)


# -- normalization ---------------------------------------------------------------


def layer_norm(x, gamma: Tensor | None = None, beta: Tensor | None = None,
               eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis; affine only when gamma/beta given."""
    x = as_tensor(x)
    xhat = np.empty_like(x.data)
    inv = np.empty(x.shape[:-1] + (1,))
    if gamma is not None:
        out_data = np.empty_like(x.data)
        parents = (x, gamma, beta)
    else:
        out_data = xhat
        parents = (x,)

    def rows(xb, xhat_b, inv_b, out_b):
        np.subtract(xb, xb.mean(axis=-1, keepdims=True), out=xhat_b)
        var = (xhat_b * xhat_b).mean(axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(var + eps), out=inv_b)
        xhat_b *= inv_b
        if gamma is not None:
            np.multiply(xhat_b, gamma.data, out=out_b)
            out_b += beta.data

    _row_blocks(rows, x.data, xhat, inv, out_data)

    def backward(g):
        if gamma is not None:
            reduce_axes = tuple(range(g.ndim - 1))
            _accumulate(gamma, (g * xhat).sum(axis=reduce_axes))
            _accumulate(beta, g.sum(axis=reduce_axes))
            dxhat = g * gamma.data
        else:
            dxhat = g
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return Tensor._make(out_data, parents, backward)


# -- gathers -------------------------------------------------------------------


def _scatter_rows(idx: np.ndarray, g2: np.ndarray, rows: int) -> np.ndarray:
    """Sum the rows of g2 (N, F) into `rows` rows at idx (N,), repeats adding
    up, as one GEMM with a (rows, N) one-hot matrix."""
    onehot = np.zeros((rows, idx.size))
    onehot[idx, np.arange(idx.size)] = 1.0
    return onehot @ g2


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of `table` (V, E) at integer indices of any shape."""
    idx = np.asarray(idx)
    out_data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            rows, width = table.data.shape
            full = _scatter_rows(idx.ravel(), g.reshape(-1, width), rows)
            _accumulate(table, full)

    return Tensor._make(out_data, (table,), backward)


def index_select(a: Tensor, axis: int, idx: np.ndarray) -> Tensor:
    """Gather along `axis` at 1-D integer indices (repeats allowed)."""
    idx = np.asarray(idx)
    out_data = np.take(a.data, idx, axis=axis)

    def backward(g):
        if a.requires_grad:
            moved = np.moveaxis(g, axis, 0)
            full = _scatter_rows(idx, moved.reshape(idx.size, -1), a.data.shape[axis])
            _accumulate(a, np.moveaxis(full.reshape((-1,) + moved.shape[1:]), 0, axis))

    return Tensor._make(out_data, (a,), backward)


def take_along_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry per position along the last axis; idx shape = a.shape[:-1]."""
    idx = np.asarray(idx)
    out_data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
            _accumulate(a, full)

    return Tensor._make(out_data, (a,), backward)


def where(cond: np.ndarray, a, b) -> Tensor:
    """Select from two tensors with a constant boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.where(cond, g, 0.0), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.where(cond, 0.0, g), b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


# -- composites used across modules ----------------------------------------------


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    norm = sqrt(tsum(mul(x, x), axis=axis, keepdims=True) + eps)
    return div(x, norm)
