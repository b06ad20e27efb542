"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray; inside a ``with Tape():`` block primitives
record themselves on the tape in execution order (which is a topological
order), and ``backward`` replays the records in exact reverse order to
accumulate gradients into the leaves. Outside every block nothing records.

A record holds only what its backward reads, and ``backward`` drops each
record once it has run it, so an activation is freed as soon as the backward
has passed every op that reads it. Records a backward never reaches are
dropped when the block exits.

Precision is selectable per tensor: float32 is the training default, float64
is used wherever gradients are verified against finite differences.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds for this process; elsewhere do nothing.

    By default glibc maps each block above a threshold that rises to the size
    of every mapped block freed, and gives the heap's free top back to the
    kernel past a limit that rises with it. Whether an op's MB-sized
    temporaries are reused from the heap, or faulted in afresh on every call,
    then depends on the heap's history, down to the length of paths in a
    config echo. Pinned thresholds (32 MiB, glibc's largest, and 64 MiB of
    free top) keep them in the heap. ``ctypes.util.find_library`` is not
    used: it starts a subprocess.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):  # not glibc, or no mallopt
        return
    if glibc:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        m_trim_threshold, m_mmap_threshold = -1, -3   # malloc.h
        mallopt(m_mmap_threshold, 32 << 20)
        mallopt(m_trim_threshold, 64 << 20)


_pin_allocator()


class TensorError(Exception):
    """Base class for tensor-core failures."""


class ShapeError(TensorError):
    """Operand shapes do not conform; message names both shapes."""


class NonFiniteError(TensorError):
    """An op produced NaN/inf while the NaN guard was enabled."""


class GraphError(TensorError):
    """Misuse of the tape: detached tensors, a backward through records an
    earlier backward dropped, non-scalar loss."""


_nan_guard = True


def set_nan_guard(enabled: bool) -> None:
    """Enable or disable the finite-output check after every primitive."""
    global _nan_guard
    _nan_guard = bool(enabled)


@contextmanager
def nan_guard(enabled: bool) -> Iterator[None]:
    """Set the finite-output check for the block; the previous setting returns on exit."""
    global _nan_guard
    saved, _nan_guard = _nan_guard, bool(enabled)
    try:
        yield
    finally:
        _nan_guard = saved


class _Record:
    """One tape entry: the op, its inputs, and how to push gradients back.

    An input recorded on the same tape is kept as its node id, a leaf (or a
    tensor from another tape) as the ``Tensor``, and an input that takes no
    gradient as None, so a record pins no activation of its own.
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered op records for one forward graph.

    Ops record only inside a ``with Tape():`` block. Records are appended in
    execution order, so the list is topologically sorted by construction.
    ``backward`` drops each record it runs, leaving None in its place, and
    leaving the block drops the rest, so no part of the graph outlives the
    block; a tape is entered once. Inside the block ``len`` counts every
    record appended, run or not.
    """

    def __init__(self):
        self._records: list[_Record | None] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        if self._spent:
            raise GraphError("tape already used; open a new Tape()")
        self._spent = True
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack.pop()
        self._records = []

    def append(self, record: _Record) -> int:
        self._records.append(record)
        return len(self._records) - 1

    def __len__(self) -> int:
        return len(self._records)


_tape_stack: list[Tape] = []


def active_tape() -> Tape | None:
    """The innermost open tape, or None outside every ``with Tape():`` block."""
    return _tape_stack[-1] if _tape_stack else None


class Tensor:
    """Dense array with a handle onto the tape that recorded it, if any."""

    __slots__ = ("data", "requires_grad", "grad", "node_id", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.node_id: int | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are promoted to constant tensors
    def __add__(self, other): return add(self, _coerce(other, self.dtype))
    def __radd__(self, other): return add(_coerce(other, self.dtype), self)
    def __sub__(self, other): return sub(self, _coerce(other, self.dtype))
    def __rsub__(self, other): return sub(_coerce(other, self.dtype), self)
    def __mul__(self, other): return mul(self, _coerce(other, self.dtype))
    def __rmul__(self, other): return mul(_coerce(other, self.dtype), self)
    def __truediv__(self, other): return div(self, _coerce(other, self.dtype))
    def __rtruediv__(self, other): return div(_coerce(other, self.dtype), self)
    def __matmul__(self, other): return matmul(self, other)
    def __pow__(self, p): return power(self, p)


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def rebase(t: Tensor, data: np.ndarray) -> Tensor:
    """``t`` over ``data``, an array of equal values such as a view into a
    stack that ``t`` was copied into. An op on the result records ``t``'s
    node as its input, so the gradient still reaches ``t``, but keeps
    ``data`` rather than ``t.data`` for its backward. A leaf that takes a
    gradient, or a node of another tape, is returned as it is."""
    if not t.requires_grad:
        return Tensor(data)
    if t.tape is None or t.tape is not active_tape():
        return t
    out = Tensor(data, requires_grad=True)
    out.tape, out.node_id = t.tape, t.node_id
    return out


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` records: a tape is open and an input
    requires grad. An op that asks before it computes keeps its backward
    state only when this holds."""
    return bool(_tape_stack) and any(t.requires_grad for t in inputs)


def _finish(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], list]) -> Tensor:
    """Wrap an op result, run the NaN guard, and record on the open tape."""
    tape = active_tape()
    requires = _recording(inputs)
    out = Tensor(out_data, requires_grad=requires)
    if _nan_guard and not np.isfinite(out_data).all():
        where = f" (tape position {len(tape)})" if tape is not None else ""
        raise NonFiniteError(f"op '{op}' produced non-finite values{where}")
    if requires:
        out.tape = tape
        kept = tuple(t.node_id if t.tape is tape else t if t.requires_grad else None for t in inputs)
        out.node_id = tape.append(_Record(op, kept, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every leaf that requires grad.

    The loss must be a scalar recorded on the innermost open tape. Each
    record is dropped once it has run, so a second backward that reaches a
    record an earlier one ran (the same loss twice, or two losses sharing a
    subgraph) is rejected: re-run the forward on a new tape instead.
    """
    tape = loss.tape
    if tape is None:
        raise GraphError("backward: tensor is detached from the tape")
    if tape is not active_tape():
        raise GraphError("backward: tensor's tape is no longer open (its block has exited)")
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    records = tape._records
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for idx in range(loss.node_id, -1, -1):
        g_out = grads.pop(idx, None)
        if g_out is None:
            continue
        rec = records[idx]
        if rec is None:
            raise GraphError(f"backward: the record at tape position {idx} was already run and dropped "
                             "by an earlier backward on this tape; re-run forward first")
        records[idx] = None
        for t, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if g is None or t is None:
                continue
            if type(t) is int:
                if t in grads:
                    grads[t] = grads[t] + g
                else:
                    grads[t] = g
            else:
                t.grad = g if t.grad is None else t.grad + g
        rec = g_out = g = None  # hold nothing of this record into the next one's backward


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise primitives
#
# ``add``, ``sub`` and ``mul`` return no gradient for an operand that takes
# none (a mask, a noise factor, a constant), so its product is never formed.
# A backward closure captures arrays and shapes, never an input ``Tensor``.


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_broadcast("add", a, b)
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return [_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None]

    return _finish("add", out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_broadcast("sub", a, b)
    out = a.data - b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return [_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(-g, b_shape) if need_b else None]

    return _finish("sub", out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_broadcast("mul", a, b)
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.shape, b.shape
    # each operand's data is kept only for the other operand's gradient
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None

    def bw(g):
        return [_unbroadcast(g * b_data, a_shape) if need_a else None,
                _unbroadcast(g * a_data, b_shape) if need_b else None]

    return _finish("mul", out, (a, b), bw)


def add_mul(x: Tensor | None, a: Tensor, c: np.ndarray, scale: np.floating | None = None) -> Tensor:
    """``x + (a * c) * scale`` for a constant array ``c`` of ``a``'s shape,
    rounding as ``add(x, mul(a, Tensor(c)) * scale)`` does; with ``x``
    None there is no add, with ``scale`` None no scaling.

    Every dropout runs on it, with ``c`` a bool keep-mask and ``scale`` the
    dtype's ``1 / keep``: ``(a * mask) * scale`` equals ``a * (mask / keep)``
    bit for bit, signed zeros and NaN under dropped positions included, and
    the mask costs one byte an element. With the constant n2 in x's place
    it is ``x * n1 + n2``, which ``stack_affine``'s lower half rounds as.
    The record keeps ``c`` only, and only when ``a`` takes a gradient."""
    has_x = x is not None
    if a.shape != np.shape(c) or (has_x and x.shape != a.shape):
        raise ShapeError(f"add-mul: x {x.shape if has_x else None}, a {a.shape} and c {np.shape(c)} "
                         "must share one shape")
    out = a.data * c
    if scale is not None:
        out *= scale
    if has_x:
        out += x.data
    need_x, need_a = has_x and x.requires_grad, a.requires_grad
    c_kept = c if need_a else None

    def bw(g):
        ga = None
        if need_a:
            ga = g * c_kept
            if scale is not None:
                ga *= scale
        return [g if need_x else None, ga] if has_x else [ga]

    return _finish("add-mul", out, (x, a) if has_x else (a,), bw)


def stack_affine(a: Tensor, c: np.ndarray | None = None, s: np.ndarray | None = None) -> Tensor:
    """``a`` stacked on ``a * c + s`` along the leading axis, (2B, ...) for
    ``a`` (B, ...) and constant arrays ``c`` and ``s`` of ``a``'s shape;
    with both None the lower half is ``a`` again. The lower half rounds as
    ``add_mul(Tensor(s), a, c)`` does, and is written straight into the
    stacked array, so no copy of it is made apart. ``a``'s gradient is
    ``G[:B] + G[B:] * c``; the record keeps ``c`` only."""
    if (c is None) != (s is None) or (c is not None and not a.shape == np.shape(c) == np.shape(s)):
        raise ShapeError(f"stack-affine: a {a.shape}, c {np.shape(c)} and s {np.shape(s)} "
                         "must share one shape, or c and s be None")
    n = a.shape[0]
    out = np.empty((2 * n,) + a.shape[1:], dtype=a.dtype)
    out[:n] = a.data
    if c is None:
        out[n:] = a.data
    else:
        np.multiply(a.data, c, out=out[n:])
        out[n:] += s

    def bw(g):
        if c is None:
            return [g[:n] + g[n:]]
        ga = g[n:] * c
        ga += g[:n]
        return [ga]

    return _finish("stack-affine", out, (a,), bw)


def mix(g: Tensor, y: Tensor) -> Tensor:
    """``g * y[:B] + (1 - g) * y[B:]`` with a per-row weight ``g`` (B, ..., 1)
    over the two halves of a stacked ``y`` (2B, ..., d), rounding as the
    composition of ``mul``, ``sub``, ``mul`` and ``add`` on the halves does.
    ``g``'s gradient sums the lower term first, ``(-sum G*b) + sum G*a``, in
    the composition's tape order; ``y``'s is one stacked array, each half
    written in place."""
    n = g.shape[0]
    if y.shape[0] != 2 * n or g.shape != (n,) + y.shape[1:-1] + (1,):
        raise ShapeError(f"mix: weight {g.shape} does not blend the halves of {y.shape}")
    g_data, y_data = g.data, y.data
    a_data, b_data = y_data[:n], y_data[n:]
    rest = g.dtype.type(1.0) - g_data
    out = g_data * a_data
    out += rest * b_data
    need_g, need_y = g.requires_grad, y.requires_grad
    g_shape = g.shape

    def bw(grad):
        gg = gy = None
        if need_g:  # both terms in one temporary; the negation copies the first out of it
            tmp = grad * b_data
            gg = -_unbroadcast(tmp, g_shape)
            gg = gg + _unbroadcast(np.multiply(grad, a_data, out=tmp), g_shape)
            tmp = None
        if need_y:
            gy = np.empty_like(y_data)
            np.multiply(grad, g_data, out=gy[:n])
            np.multiply(grad, rest, out=gy[n:])
        return [gg, gy]

    return _finish("mix", out, (g, y), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    out = a.data / b.data
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        ga = _unbroadcast(g / b_data, a_shape)
        gb = _unbroadcast(-g * a_data / (b_data * b_data), b_shape)
        return [ga, gb]

    return _finish("div", out, (a, b), bw)


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out = a.data ** p
    a_data = a.data

    def bw(g):
        return [g * p * a_data ** (p - 1.0)]

    return _finish("pow", out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    mask = a.data > 0

    def bw(g):
        return [g * mask]

    return _finish("relu", out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    # split by sign for overflow safety
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = out.astype(x.dtype, copy=False)

    def bw(g):
        return [g * out * (1.0 - out)]

    return _finish("sigmoid", out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions


def _axis_tuple(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.shape

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        return [np.broadcast_to(g, shape).copy()]

    return _finish("sum", out, (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.data.ndim)
    n = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims)
    shape = a.shape

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        return [np.broadcast_to(g, shape) / n]

    return _finish("mean", out, (a,), bw)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    out = a.data.reshape(shape)

    def bw(g):
        return [g.reshape(old)]

    return _finish("reshape", out, (a,), bw)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.transpose(a.data, axes)

    def bw(g):
        return [np.transpose(g, inv)]

    return _finish("transpose", out, (a,), bw)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """``a`` stacked on ``b`` along the leading axis; each gets its part of
    the gradient as a view."""
    if a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"concat: shapes {a.shape} and {b.shape} differ past the leading axis")
    n = a.shape[0]

    def bw(g):
        return [g[:n], g[n:]]

    return _finish("concat", np.concatenate([a.data, b.data]), (a, b), bw)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, keeping a single-row 2-D product on the same BLAS kernel as
    a multi-row one (numpy sends a 1 x K product to gemv, which rounds
    differently), so a token's result does not depend on how many rows share
    its slab."""
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


_SMALL_PRODUCT = 4096  # output elements; see _gemm_t


def _gemm_t(a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ w.T`` for a 2-D slab ``a``, each row rounding as it does in a
    tall slab. OpenBLAS runs a small product by a transposed operand on a
    kernel that rounds apart: at power-of-two widths, products of up to
    about 1,200 elements (a slab of 1-9 rows at 128 output columns). A
    product of up to ``_SMALL_PRODUCT`` elements runs on a contiguous copy
    of ``w.T`` through ``_gemm``, whose rows round as the tall product's do
    at desk widths; a larger one needs no copy. At a reduction over 512, as
    at paper-base, the contiguous product rounds a 1-7 row slab apart as
    well (ROADMAP item 3). The product is written to ``out`` when given."""
    if a.shape[0] * w.shape[0] > _SMALL_PRODUCT:
        return np.matmul(a, w.T, out=out)
    product = _gemm(a, np.ascontiguousarray(w.T))
    if out is None:
        return product
    out[...] = product
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with numpy's broadcasting rules.

    A (..., K) @ (K, N) product runs as one full-height (rows, K) @ (K, N)
    GEMM, forward and input gradient. Its weight gradient stays one product
    per leading index, summed afterwards, so no product reduces over more
    than one sequence's tokens.
    """
    if b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}: inner dimensions differ or the right operand is 1-D")
    a_data, b_data = a.data, b.data
    flat = a_data.ndim > 2 and b_data.ndim == 2
    rows = int(np.prod(a.shape[:-1]))
    if flat:
        out = _gemm(a_data.reshape(rows, a.shape[-1]), b_data).reshape(*a.shape[:-1], b.shape[-1])
    else:
        out = _gemm(a_data, b_data)

    def bw(g):
        if a_data.ndim == 1:
            # (n,) @ (n, m) -> (m,)
            return [g @ b_data.T, np.outer(a_data, g)]
        if flat:
            ga = (g.reshape(rows, g.shape[-1]) @ b_data.T).reshape(a_data.shape)
        else:
            ga = g @ np.swapaxes(b_data, -1, -2)
        gb = np.swapaxes(a_data, -1, -2) @ g
        return [_unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape)]

    return _finish("matmul", out, (a, b), bw)


# ---------------------------------------------------------------------------
# row gather


def _strictly_increasing(idx: np.ndarray) -> bool:
    return idx.ndim == 1 and (idx.size < 2 or bool(np.all(idx[1:] > idx[:-1])))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Rows ``a[idx]`` for an index array of any shape; the gradient
    scatter-adds back into the rows, so repeated indices accumulate.

    A repeated-index scatter runs as one flat 1-D ``np.add.at`` over single
    elements: each element still sums its rows' values in index order, as a
    row-wise ``np.add.at`` does, but on numpy's fast 1-D path."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather-rows: index outside [0, {a.shape[0]}) for shape {a.shape}")
    out = a.data[idx]
    a_shape, a_dtype = a.shape, a.dtype
    unique = _strictly_increasing(idx)

    def bw(g):
        ga = np.zeros(a_shape, dtype=a_dtype)
        if unique:
            ga[idx] = g
        else:
            width = int(np.prod(a_shape[1:]))
            flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            np.add.at(ga.reshape(-1), flat, g.reshape(-1))
        return [ga]

    return _finish("gather-rows", out, (a,), bw)


# ---------------------------------------------------------------------------
# fused neural-net primitives


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax with row-max subtraction for overflow safety."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return [out * (g - dot)]

    return _finish("softmax", out, (a,), bw)


def affine_layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-5) -> Tensor:
    """``normalize(x) * g + b``: x normalized over its last axis to zero mean
    and unit variance, then scaled and shifted, rounding as a normalize, a
    ``mul`` and an ``add`` would. Without a record the output reuses the
    normalized buffer."""
    recording = _recording((x, g, b))
    mu = x.data.mean(axis=-1, keepdims=True)
    y = x.data - mu
    var = (y * y).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y *= inv
    out = y * g.data if recording else np.multiply(y, g.data, out=y)
    out += b.data
    g_data, g_shape, b_shape = g.data, g.shape, b.shape
    need_x, need_g, need_b = x.requires_grad, g.requires_grad, b.requires_grad

    def bw(grad):
        gx = tmp = None
        if need_x:  # inv * (gy - gm - y * gym), in gy's buffer and one temporary
            gy = grad * g_data
            gm = gy.mean(axis=-1, keepdims=True)
            tmp = gy * y
            gym = tmp.mean(axis=-1, keepdims=True)
            gy -= gm
            gy -= np.multiply(y, gym, out=tmp)
            gy *= inv
            gx = gy
        gg = _unbroadcast(np.multiply(grad, y, out=tmp), g_shape) if need_g else None
        return [gx, gg, _unbroadcast(grad, b_shape) if need_b else None]

    return _finish("affine-layer-norm", out, (x, g, b), bw)


_causal_masks: dict[tuple[int, np.dtype], np.ndarray] = {}


def _causal_mask(t: int, dtype) -> np.ndarray:
    """The additive (t, t) mask: -1e9 above the diagonal, effectively -inf
    after softmax. Cached read-only per (t, dtype)."""
    key = (t, np.dtype(dtype))
    mask = _causal_masks.get(key)
    if mask is None:
        mask = _causal_masks[key] = np.triu(np.full((t, t), -1e9, dtype=dtype), k=1)
        mask.flags.writeable = False
    return mask


_TILE = 32  # query rows per causal attention tile


def _tiles(t: int) -> list[tuple[int, int]]:
    """Row ranges of ``_TILE`` query rows over a length-t sequence. A one-row
    remainder joins the tile before it: numpy runs a one-row product on
    gemv, which rounds apart from a multi-row one."""
    starts = list(range(0, t, _TILE))
    if len(starts) > 1 and t - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [t]))


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal attention over (B, T, d) projections: per head,
    softmax(q k^T / sqrt(dh) + mask) v, with the heads merged back to d.

    The forward runs in tiles of ``_TILE`` query rows (see ``_tiles``). A
    tile scores only the columns up to its last row, masks its diagonal
    block, and writes its softmax times v into the output. A tile reduces
    over its own columns, not the whole row, so past T = 128 its row sums and
    products may round apart from a full-row forward's.

    When the op records it keeps each query row's max and exp-sum, (B, h, T,
    1) each, and no probabilities. Its backward does only causal work, in two
    passes over the same tiles. The row pass rebuilds each tile's
    probabilities on its columns up to its last row, with the forward's own
    tile ops on the same inputs, so they equal the forward's bit for bit; it
    forms the scores' gradient and q's gradient from them, and copies both
    into per-key-column blocks that hold only the rows at or below each
    block's first column. The column pass forms k's and v's gradients as one
    product per block and frees each block after it, so no (B, h, T, T)
    array exists. Up to T = 128 every product sums the same nonzero terms in
    the same order as a full-square backward, so the gradients equal its bit
    for bit; past that the shorter reductions may round apart.
    """
    if not q.shape == k.shape == v.shape or q.data.ndim != 3:
        raise ShapeError(f"causal-attention: q, k, v must share one (B, T, d) shape, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    b, t, d = q.shape
    if d % n_heads:
        raise ShapeError(f"causal-attention: d={d} is not divisible by {n_heads} heads")
    h, dh = n_heads, d // n_heads

    def split(a):  # (B, T, d) -> (B, h, T, dh) view
        return a.reshape(b, t, h, dh).transpose(0, 2, 1, 3)

    # q and v stay strided views: BLAS reads each head's rows in place
    qh, vh = split(q.data), split(v.data)
    kt = np.ascontiguousarray(k.data.reshape(b, t, h, dh).transpose(0, 2, 3, 1))  # (B, h, dh, T)
    dtype = q.dtype
    scale = dtype.type(1.0 / np.sqrt(dh))
    tiles = _tiles(t)

    def scores(r0, r1):  # one tile's scaled, masked scores, (B, h, r1 - r0, r1)
        s = qh[:, :, r0:r1] @ kt[..., :r1]
        s *= scale
        s[..., r0:] += _causal_mask(r1 - r0, dtype)
        return s

    recording = _recording((q, k, v))
    row_max = np.empty((b, h, t, 1), dtype=dtype) if recording else None
    row_sum = np.empty((b, h, t, 1), dtype=dtype) if recording else None
    out = np.empty((b, t, h, dh), dtype=dtype)
    for r0, r1 in tiles:
        s = scores(r0, r1)
        top = s.max(axis=-1, keepdims=True)
        s -= top
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        s /= total
        out[:, r0:r1] = (s @ vh[:, :, :r1]).transpose(0, 2, 1, 3)
        if recording:
            row_max[:, :, r0:r1], row_sum[:, :, r0:r1] = top, total

    def bw(g):
        # contiguous copies: on transposed views the products of q's and k's
        # gradients round apart from a full-square backward's, even at T <= 128
        gh = np.ascontiguousarray(split(g))
        vt = np.ascontiguousarray(vh.transpose(0, 1, 3, 2))  # (B, h, dh, T)
        kc = np.ascontiguousarray(kt.transpose(0, 1, 3, 2))  # (B, h, T, dh)
        # rows c0: of key columns c0:c1, per column tile, of p and of the
        # scores' gradient; rows above c0 are zero there and never stored
        p_cols = [np.empty((b, h, t - c0, c1 - c0), dtype=dtype) for c0, c1 in tiles]
        gs_cols = [np.empty_like(block) for block in p_cols]
        gq = np.empty((b, t, h, dh), dtype=dtype)  # the gradients merge their heads as they are written
        for r0, r1 in tiles:  # row pass: columns :r1 of each query tile
            p = scores(r0, r1)
            p -= row_max[:, :, r0:r1]
            np.exp(p, out=p)
            p /= row_sum[:, :, r0:r1]
            gs = gh[:, :, r0:r1] @ vt[..., :r1]
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            gq[:, r0:r1] = (gs @ kc[:, :, :r1]).transpose(0, 2, 1, 3)
            for (c0, c1), p_col, gs_col in zip(tiles, p_cols, gs_cols):
                if c0 >= r1:
                    break
                p_col[:, :, r0 - c0:r1 - c0] = p[..., c0:c1]
                gs_col[:, :, r0 - c0:r1 - c0] = gs[..., c0:c1]
        gk, gv = np.empty_like(gq), np.empty_like(gq)
        for i, (c0, c1) in enumerate(tiles):  # column pass: one product per block
            gv[:, c0:c1] = (p_cols[i].transpose(0, 1, 3, 2) @ gh[:, :, c0:]).transpose(0, 2, 1, 3)
            gk[:, c0:c1] = (qh[:, :, c0:].transpose(0, 1, 3, 2) @ gs_cols[i]).transpose(0, 3, 1, 2)
            p_cols[i] = gs_cols[i] = None
        return [gq.reshape(b, t, d), gk.reshape(b, t, d), gv.reshape(b, t, d)]

    return _finish("causal-attention", out.reshape(b, t, d), (q, k, v), bw)


def expert_ffn(x: Tensor, gates: Tensor, indices: np.ndarray, w1: Sequence[Tensor],
               b1: Sequence[Tensor], w2: Sequence[Tensor], b2: Sequence[Tensor]) -> Tensor:
    """Routed two-layer ReLU experts: row r of ``x`` (..., d) gets
    sum_j gates[r, e] * (relu(x[r] @ w1[e] + b1[e]) @ w2[e] + b2[e]) over
    its selected experts e = indices[r, j].

    A stable sort groups the (row, slot) pairs by expert with rows ascending,
    and each expert runs its GEMMs on its gathered rows. A row's
    contributions are summed from zero in ascending expert order; the
    backward sums its dx in descending expert order. Experts no row selects
    are never run and get no gradient. Each expert's hidden and output slabs
    are kept for the backward only when the op records, and the backward
    writes each expert's temporaries into them and then frees them; its
    gathered input rows
    are not kept, the backward gathers them again. The backward gathers each
    expert's output-gradient rows inside its loop, so it holds one expert's
    rows at a time, never the whole batch's k slots. Its row products by
    transposed weights run through ``_gemm_t``, so at power-of-two widths a
    row's input gradient, like its output, does not depend on how many rows
    share its expert.
    """
    n, d = len(w1), x.shape[-1]
    xf = x.data.reshape(-1, d)
    m = xf.shape[0]
    if gates.shape[:-1] != x.shape[:-1] or gates.shape[-1] != n:
        raise ShapeError(f"expert-ffn: gates {gates.shape} do not match x {x.shape} and {n} experts")
    flat = np.asarray(indices).reshape(-1)
    if flat.size == 0 or flat.size % m:
        raise ShapeError(f"expert-ffn: indices {np.shape(indices)} do not give every row of x {x.shape} k slots")
    if flat.min() < 0 or flat.max() >= n:
        raise ShapeError(f"expert-ffn: expert index outside [0, {n})")
    inputs = (x, gates, *w1, *b1, *w2, *b2)
    recording = _recording(inputs)
    order = np.argsort(flat, kind="stable")
    rows, experts = order // (flat.size // m), flat[order]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n))])
    used = [i for i in range(n) if bounds[i + 1] > bounds[i]]
    gate = gates.data.reshape(m, n)[rows, experts][:, None]
    x_shape, gates_shape, gates_dtype = x.shape, gates.shape, gates.dtype

    out = np.zeros_like(xf)
    hidden, ys = {}, {}
    for i in used:
        lo, hi = bounds[i], bounds[i + 1]
        hid = _gemm(xf[rows[lo:hi]], w1[i].data)
        hid += b1[i].data
        np.maximum(hid, 0, out=hid)
        y = _gemm(hid, w2[i].data)
        y += b2[i].data
        out[rows[lo:hi]] += gate[lo:hi] * y
        if recording:
            hidden[i], ys[i] = hid, y

    def bw(g):
        g = g.reshape(m, d)
        gx = np.zeros_like(xf)
        g_gate = np.zeros((m, n), dtype=gates_dtype)
        gw1, gb1, gw2, gb2 = ([None] * n for _ in range(4))
        for i in reversed(used):
            lo, hi = bounds[i], bounds[i + 1]
            # this record runs once: an expert's slabs take its temporaries, then go
            hid, y = hidden.pop(i), ys.pop(i)
            gyi = g[rows[lo:hi]]
            y *= gyi
            g_gate[rows[lo:hi], i] = y.sum(axis=1)
            del y
            gyi *= gate[lo:hi]
            gb2[i] = gyi.sum(axis=0)
            gw2[i] = hid.T @ gyi
            mask = hid > 0
            gh = _gemm_t(gyi, w2[i].data, out=hid)
            gh *= mask
            del hid, mask
            gb1[i] = gh.sum(axis=0)
            gw1[i] = xf[rows[lo:hi]].T @ gh
            gx[rows[lo:hi]] += _gemm_t(gh, w1[i].data, out=gyi)
            del gh, gyi
        return [gx.reshape(x_shape), g_gate.reshape(gates_shape), *gw1, *gb1, *gw2, *gb2]

    return _finish("expert-ffn", out.reshape(x_shape), inputs, bw)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token cross-entropy in nats for integer targets.

    Accepts logits of shape (..., V); targets have the leading shape.
    """
    targets = np.asarray(targets)
    v = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"cross-entropy-with-logits: target outside [0, {v})")
    flat = logits.data.reshape(-1, v)
    tflat = targets.reshape(-1)
    m = flat.max(axis=-1, keepdims=True)
    z = flat - m
    lse = np.log(np.exp(z).sum(axis=-1))
    nll = lse - z[np.arange(flat.shape[0]), tflat]
    out = np.asarray(nll.mean(), dtype=logits.dtype)
    n = flat.shape[0]
    l_shape = logits.shape

    def bw(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), tflat] -= 1.0
        return [(p * (g.reshape(()) / n)).reshape(l_shape)]

    return _finish("cross-entropy-with-logits", out, (logits,), bw)


# ---------------------------------------------------------------------------
# verification harness


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map a tensor to a scalar and be deterministic (fix any RNG
    before calling). Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if epsilon <= 0:
        raise ValueError("grad_check: epsilon must be positive")
    x = Tensor(point.data.copy(), requires_grad=True)
    with Tape():
        out = f(x)
        if not isinstance(out, Tensor) or out.data.size != 1:
            raise GraphError("grad_check: f must return a scalar tensor")
        backward(out)
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)

    flat = point.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            probe = flat.copy()
            probe[i] += sign * epsilon
            try:
                val = f(Tensor(probe.reshape(point.shape), dtype=point.dtype)).item()
            except NonFiniteError as err:
                raise NonFiniteError(f"grad_check: f non-finite at perturbed coordinate {i} ({err})") from err
            if not np.isfinite(val):
                raise NonFiniteError(f"grad_check: f non-finite at perturbed coordinate {i}")
            numeric[i] += sign * val
        numeric[i] /= 2.0 * epsilon
    numeric = numeric.reshape(point.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
