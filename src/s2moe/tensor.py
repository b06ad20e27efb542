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
import threading
from typing import Callable, Sequence

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


def _pin_blas() -> bool:
    """Run the OpenBLAS that numpy loaded on one thread; True when it could be asked.

    A multi-threaded GEMM rounds apart from a one-thread one past some
    reduction lengths, so results would depend on ``OPENBLAS_NUM_THREADS``;
    and after every call OpenBLAS's idle workers spin on the other cores for
    their timeout, which starves any other thread of this process. Pinned,
    the program's own two-part splits (``in_parallel``) use a second core.
    The library is found where the numpy wheel keeps it, as perfbench's
    ``blas_threads`` finds it."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = [name for name in os.listdir(libdir) if "openblas" in name]
    except OSError:
        names = []
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libdir, name))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = (ctypes.c_int,), None
                fn(1)
                return True
    return False


_blas_pinned = _pin_blas()


class _Helper:
    """A daemon thread that runs the second part of ``in_parallel``, started
    on first use. It waits on a lock, so it holds up no interpreter exit; a
    child forked from this process has no copy of it and starts its own
    (``os.register_at_fork``)."""

    def __init__(self):
        self.busy, self.posted, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.posted.acquire()
        self.done.acquire()
        self.part: Callable[[], object] | None = None
        self.result: tuple[object, BaseException | None] | None = None
        threading.Thread(target=self.serve, name="s2moe-helper", daemon=True).start()

    def serve(self) -> None:
        while True:
            self.posted.acquire()
            try:
                self.result = (self.part(), None)
            except BaseException as err:  # the caller re-raises it
                self.result = (None, err)
            self.part = None
            self.done.release()


_helper: _Helper | bool | None = None  # None until first use; False where parts run one after the other


def _reset_helper() -> None:
    global _helper
    _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_helper)


def in_parallel(first: Callable[[], object], second: Callable[[], object]) -> tuple[object, object]:
    """``(first(), second())``, with ``second`` run on the helper thread while
    the caller runs ``first``. Both parts must work on numpy arrays only and
    write disjoint outputs, so the result is the same bits as one after the
    other; an exception in either part reaches the caller once both have
    ended. The parts run one after the other, the second only if the first
    returns, when the process can use only one CPU, when BLAS could not be
    pinned to one thread (its own threads would then contend for the cores),
    or when a split is already running."""
    global _helper
    if _helper is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        _helper = _blas_pinned and cpus > 1 and _Helper()
    helper = _helper
    if not helper or not helper.busy.acquire(blocking=False):
        return first(), second()
    try:
        helper.part = second
        helper.posted.release()
        try:
            a = first()
        finally:
            helper.done.acquire()
            (b, err), helper.result = helper.result, None
        if err is not None:
            raise err
        return a, b
    finally:
        helper.busy.release()


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


def set_nan_guard(enabled: bool) -> bool:
    """Enable or disable the finite-output check after every primitive; the
    setting it replaced, for a caller that restores it."""
    global _nan_guard
    saved, _nan_guard = _nan_guard, bool(enabled)
    return saved


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
    dtype's inverse keep rate: ``(a * mask) * scale`` equals
    ``a * (mask * scale)`` bit for bit, signed zeros and NaN under dropped
    positions included, and the mask costs one byte an element. With the
    constant n2 in x's place it is ``x * n1 + n2``, which ``stack_affine``'s
    lower half rounds as. The record keeps ``c`` only, and only when ``a``
    takes a gradient."""
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
    """``a`` stacked on ``b`` along the leading axis; each gets its part of the gradient
    as a view. It has no program caller: it is a piece of the fused-op tests' reference
    compositions for ``stack_affine`` and ``mix``, as ``reshape`` and ``sub`` are for theirs."""
    if a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"concat: shapes {a.shape} and {b.shape} differ past the leading axis")
    n = a.shape[0]

    def bw(g):
        return [g[:n], g[n:]]

    return _finish("concat", np.concatenate([a.data, b.data]), (a, b), bw)


_MIN_PRODUCT = 4096  # output elements; see _gemm


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, written to ``out`` when given, each row with the bits of a
    product of fixed shape, so a row's result does not depend on the rows
    beside it. OpenBLAS picks its kernel by shape, and kernels round apart.

    A stacked product runs as numpy's stacked matmul: one (T, K) @ (K, N)
    GEMM per leading index, never flattened, so a sequence's rows do not
    depend on the batch. A 2-D product of fewer than ``_MIN_PRODUCT`` output
    elements runs on ``a`` zero-padded to ceil(_MIN_PRODUCT / N) rows: a
    short slab, a single row (which numpy would send to gemv) or a
    transposed ``b`` then rounds as a tall slab does. At the model's widths
    a shape scan on OpenBLAS found 2-D rows rounding apart only below this
    floor; at some others (K = 96 into 24 columns) they do above it too."""
    m, n = a.shape[-2], b.shape[-1]
    if a.ndim > 2 or b.ndim > 2 or m * n >= _MIN_PRODUCT:
        return np.matmul(a, b, out=out)
    padded = np.zeros((-(-_MIN_PRODUCT // n), a.shape[1]), dtype=a.dtype)
    padded[:m] = a
    product = (padded @ b)[:m]
    if out is None:
        return product
    out[...] = product
    return out


def _product(a: Tensor, b: Tensor, out: np.ndarray | None = None) -> np.ndarray:
    """``a.data @ b.data`` by ``_gemm``, written to ``out`` when given."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}: inner dimensions differ or an operand is 1-D")
    return _gemm(a.data, b.data, out=out)


def _record_product(a: Tensor, b: Tensor, out: np.ndarray) -> Tensor:
    a_data, b_data = a.data, b.data

    def bw(g):
        ga = _gemm(g, np.swapaxes(b_data, -1, -2))
        gb = np.swapaxes(a_data, -1, -2) @ g
        return [_unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape)]

    return _finish("matmul", out, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with numpy's broadcasting rules.

    The product and the input gradient run through ``_gemm``: a (B, T, K) @
    (K, N) product is one GEMM per sequence. The weight gradient is one
    product per leading index, summed afterwards, so no product reduces over
    more than one sequence's tokens. No product is split by rows: a split
    GEMM can round apart from the whole one even on one BLAS thread.
    """
    return _record_product(a, b, _product(a, b))


def matmuls(a: Tensor, bs: Sequence[Tensor]) -> list[Tensor]:
    """``[matmul(a, b) for b in bs]`` for 2-D ``bs``, with the products formed
    as two parts at once (``in_parallel``), into arrays made here, and
    recorded in order."""
    outs = [np.empty(a.shape[:-1] + b.shape[-1:], dtype=np.result_type(a.data, b.data)) for b in bs]
    cut = (len(bs) + 1) // 2
    in_parallel(lambda: [_product(a, b, out) for b, out in zip(bs[:cut], outs[:cut])],
                lambda: [_product(a, b, out) for b, out in zip(bs[cut:], outs[cut:])])
    return [_record_product(a, b, out) for b, out in zip(bs, outs)]


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

    The forward and the backward each run the two halves of the batch's
    sequences at once (``in_parallel``), each half in arrays the caller
    made: every (b, h) slice is its own product, so no bit changes.
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

    def scores(b0, b1, r0, r1):  # one tile's scaled, masked scores, (b1 - b0, h, r1 - r0, r1)
        s = qh[b0:b1, :, r0:r1] @ kt[b0:b1, ..., :r1]
        s *= scale
        s[..., r0:] += _causal_mask(r1 - r0, dtype)
        return s

    recording = _recording((q, k, v))
    row_max = np.empty((b, h, t, 1), dtype=dtype) if recording else None
    row_sum = np.empty((b, h, t, 1), dtype=dtype) if recording else None
    out = np.empty((b, t, h, dh), dtype=dtype)

    def forward(b0, b1):  # the sequences b0:b1
        for r0, r1 in tiles:
            s = scores(b0, b1, r0, r1)
            top = s.max(axis=-1, keepdims=True)
            s -= top
            np.exp(s, out=s)
            total = s.sum(axis=-1, keepdims=True)
            s /= total
            out[b0:b1, r0:r1] = (s @ vh[b0:b1, :, :r1]).transpose(0, 2, 1, 3)
            if recording:
                row_max[b0:b1, :, r0:r1], row_sum[b0:b1, :, r0:r1] = top, total

    _split(forward, b, b // 2)

    def bw(g):
        # contiguous copies: on transposed views the products of q's and k's
        # gradients round apart from a full-square backward's, even at T <= 128
        gh = np.empty((b, h, t, dh), dtype=dtype)
        vt = np.empty((b, h, dh, t), dtype=dtype)
        kc = np.empty((b, h, t, dh), dtype=dtype)
        # the gradients merge their heads as they are written
        gq, gk, gv = (np.empty((b, t, h, dh), dtype=dtype) for _ in range(3))
        g_heads = split(g)
        # per part of the batch, rows c0: of key columns c0:c1, per column
        # tile, of p and of the scores' gradient; rows above c0 are zero
        # there and never stored
        blocks = {b0: [[np.empty((b1 - b0, h, t - c0, c1 - c0), dtype=dtype) for c0, c1 in tiles]
                       for _ in range(2)] for b0, b1 in ((0, b // 2), (b // 2, b)) if b1 > b0}

        def backward(b0, b1):  # the sequences b0:b1
            p_cols, gs_cols = blocks.pop(b0)
            gh[b0:b1], vt[b0:b1] = g_heads[b0:b1], vh[b0:b1].transpose(0, 1, 3, 2)
            kc[b0:b1] = kt[b0:b1].transpose(0, 1, 3, 2)
            for r0, r1 in tiles:  # row pass: columns :r1 of each query tile
                p = scores(b0, b1, r0, r1)
                p -= row_max[b0:b1, :, r0:r1]
                np.exp(p, out=p)
                p /= row_sum[b0:b1, :, r0:r1]
                gs = gh[b0:b1, :, r0:r1] @ vt[b0:b1, ..., :r1]
                gs -= (gs * p).sum(axis=-1, keepdims=True)
                gs *= p
                gs *= scale
                gq[b0:b1, r0:r1] = (gs @ kc[b0:b1, :, :r1]).transpose(0, 2, 1, 3)
                for (c0, c1), p_col, gs_col in zip(tiles, p_cols, gs_cols):
                    if c0 >= r1:
                        break
                    p_col[:, :, r0 - c0:r1 - c0] = p[..., c0:c1]
                    gs_col[:, :, r0 - c0:r1 - c0] = gs[..., c0:c1]
            for i, (c0, c1) in enumerate(tiles):  # column pass: one product per block, freed after it
                gv[b0:b1, c0:c1] = (p_cols[i].transpose(0, 1, 3, 2) @ gh[b0:b1, :, c0:]).transpose(0, 2, 1, 3)
                gk[b0:b1, c0:c1] = (qh[b0:b1, :, c0:].transpose(0, 1, 3, 2) @ gs_cols[i]).transpose(0, 3, 1, 2)
                p_cols[i] = gs_cols[i] = None

        _split(backward, b, b // 2)
        return [gq.reshape(b, t, d), gk.reshape(b, t, d), gv.reshape(b, t, d)]

    return _finish("causal-attention", out.reshape(b, t, d), (q, k, v), bw)


def _halves(sizes: Sequence[int]) -> int:
    """The cut ``j`` that splits ``sizes`` into ``[:j]`` and ``[j:]`` of
    nearly equal sums, each part non-empty; 0 for fewer than two sizes."""
    if len(sizes) < 2:
        return 0
    cum = np.cumsum(sizes)
    return int(np.argmin(np.abs(2 * cum[:-1] - cum[-1]))) + 1


def _split(part: Callable[[int, int], None], n: int, cut: int) -> None:
    """``part(0, cut)`` and ``part(cut, n)`` at once; ``part(0, n)`` alone when ``cut`` is 0."""
    if cut:
        in_parallel(lambda: part(0, cut), lambda: part(cut, n))
    else:
        part(0, n)


def _gather_sum(out: np.ndarray, slab: np.ndarray, slots: np.ndarray, scale: np.ndarray | None = None,
                term: np.ndarray | None = None) -> None:
    """``out`` = ``((0 + t0) + t1) + ...`` per row, over the terms
    ``t_j = slab[slots[:, j]]``, each times ``scale[slots[:, j]]`` when given,
    gathered into ``term`` (an array of ``out``'s shape) when given.

    The sum starts from the first term rather than zero and adds zero last:
    that rounds alike, except that a row of -0.0 terms comes out +0.0 only
    through the last add, as it does from zero."""
    np.take(slab, slots[:, 0], axis=0, out=out, mode="clip")
    if scale is not None:
        out *= scale[slots[:, 0]]
    if term is None and slots.shape[1] > 1:
        term = np.empty_like(out)
    for j in range(1, slots.shape[1]):
        np.take(slab, slots[:, j], axis=0, out=term, mode="clip")
        if scale is not None:
            term *= scale[slots[:, j]]
        out += term
    out += out.dtype.type(0)


def expert_ffn(x: Tensor, gates: Tensor, indices: np.ndarray, w1: Sequence[Tensor],
               b1: Sequence[Tensor], w2: Sequence[Tensor], b2: Sequence[Tensor]) -> Tensor:
    """Routed two-layer ReLU experts: row r of ``x`` (..., d) gets
    sum_j gates[r, e] * (relu(x[r] @ w1[e] + b1[e]) @ w2[e] + b2[e]) over
    its k selected experts e = indices[r, j], which must be distinct.

    One stable sort orders the (row, slot) pairs by expert, rows ascending,
    and each expert runs its GEMMs on its gathered rows. No expert writes
    rows another one writes, so the experts run as two groups of about equal
    row count at once (``in_parallel``), bit for bit as one after the other.
    Experts no row selects are never run and get no gradient.

    Each expert writes its output rows into one slab in sorted order; the
    combine gathers each row's k rows in ascending expert order, scales each
    by its gate and sums them from zero (``_gather_sum``). The backward
    writes each expert's input-gradient rows over its spent output rows, and
    the unsort sums a row's in descending expert order.

    The slab and each expert's hidden rows are kept only when the op
    records; the backward frees each expert's hidden rows after it, and
    gathers the input rows again. The groups work in arrays the caller
    makes, buffers of their tallest expert among them, so the helper thread
    allocates little: the caller's group allocates its weight gradients as
    it frees hidden rows, the helper's go into arrays made up front.
    Every row product runs through ``_gemm``, so a row's output and input
    gradient do not depend on how many rows share its expert.
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
    k, pairs, dtype, d_exp = flat.size // m, flat.size, xf.dtype, w1[0].shape[1]
    order = np.argsort(flat, kind="stable")
    rows, experts = order // k, flat[order]
    if k > 1 and np.any((rows[1:] == rows[:-1]) & (experts[1:] == experts[:-1])):
        raise ShapeError("expert-ffn: a row selects one expert twice")
    counts = np.bincount(flat, minlength=n)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    used = [i for i in range(n) if counts[i]]
    cut = _halves(counts[used])
    groups = [(0, cut), (cut, len(used))] if cut else [(0, len(used))]
    tallest = {a: int(counts[used[a:b]].max()) for a, b in groups}
    gate = gates.data.reshape(m, n)[rows, experts][:, None]
    # each row's k places in the sorted slab, in ascending expert order
    slots = np.empty(pairs, dtype=np.intp)
    slots[order] = np.arange(pairs)
    slots = np.sort(slots.reshape(m, k), axis=1)
    x_shape, gates_shape, gates_dtype = x.shape, gates.shape, gates.dtype

    out = np.empty_like(xf)
    # each expert's gathered input rows, then its output rows over them
    ys = np.empty((pairs, d), dtype=dtype)
    hidden = h_bufs = spare = None
    if recording:
        hidden = {i: np.empty((counts[i], d_exp), dtype=dtype) for i in used}
    else:  # per group, one expert's hidden rows at a time, in one array the combine's terms reuse
        heights = np.cumsum(list(tallest.values()))
        spare = np.empty(max(heights[-1] * d_exp, out.size if k > 1 else 0), dtype=dtype)
        h_bufs = dict(zip(tallest, np.split(spare[:heights[-1] * d_exp].reshape(-1, d_exp), heights[:-1])))

    def forward(a, b):
        for i in used[a:b]:
            lo, hi = bounds[i], bounds[i + 1]
            hid = _gemm(np.take(xf, rows[lo:hi], axis=0, out=ys[lo:hi], mode="clip"), w1[i].data,
                        out=hidden[i] if recording else h_bufs[a][:hi - lo])
            hid += b1[i].data
            np.maximum(hid, 0, out=hid)
            y = _gemm(hid, w2[i].data, out=ys[lo:hi])
            y += b2[i].data

    _split(forward, len(used), cut)
    _gather_sum(out, ys, slots, gate, None if recording or k == 1 else spare[:out.size].reshape(out.shape))
    h_bufs = spare = None
    if not recording:
        ys = None

    def bw(g):
        nonlocal ys
        g = g.reshape(m, d)
        g_gate = np.zeros((m, n), dtype=gates_dtype)
        gw1, gb1, gw2, gb2 = ([None] * n for _ in range(4))
        for i in used[cut:] if cut else ():  # the helper's weight gradients go into arrays made here
            gw1[i], gw2[i] = np.empty_like(w1[i].data), np.empty_like(w2[i].data)
        # per group, one expert's output-gradient rows and its ReLU mask at a time
        bufs = {a: (np.empty((t, d), dtype=dtype), np.empty((t, d_exp), dtype=bool)) for a, t in tallest.items()}

        def backward(a, b):
            gy_buf, mask_buf = bufs[a]
            for i in reversed(used[a:b]):
                lo, hi = bounds[i], bounds[i + 1]
                hid, y = hidden.pop(i), ys[lo:hi]  # this record runs once: the hidden rows go after this expert
                gyi = np.take(g, rows[lo:hi], axis=0, out=gy_buf[:hi - lo], mode="clip")
                y *= gyi
                g_gate[rows[lo:hi], i] = y.sum(axis=1)
                gyi *= gate[lo:hi]
                gb2[i] = gyi.sum(axis=0)
                gw2[i] = np.matmul(hid.T, gyi, out=gw2[i])
                mask = np.greater(hid, 0, out=mask_buf[:hi - lo])
                gh = _gemm(gyi, w2[i].data.T, out=hid)
                gh *= mask
                gb1[i] = gh.sum(axis=0)
                gw1[i] = np.matmul(np.take(xf, rows[lo:hi], axis=0, out=gyi, mode="clip").T, gh, out=gw1[i])
                _gemm(gh, w1[i].data.T, out=y)  # the input gradient, over the spent output rows
                del hid, gh

        _split(backward, len(used), cut)
        slab, ys = ys, None
        gx = np.empty_like(xf)  # the unsort sums each row's input gradient in descending expert order
        _gather_sum(gx, slab, slots[:, ::-1])
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
