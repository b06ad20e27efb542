"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps an ndarray; inside a ``with Tape():`` block primitives
record themselves on the tape in execution order (which is a topological
order), and ``backward`` replays the records in exact reverse order to
accumulate gradients into the leaves. Outside every block nothing records.

Precision is selectable per tensor: float32 is the training default, float64
is used wherever gradients are verified against finite differences.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class TensorError(Exception):
    """Base class for tensor-core failures."""


class ShapeError(TensorError):
    """Operand shapes do not conform; message names both shapes."""


class NonFiniteError(TensorError):
    """An op produced NaN/inf while the NaN guard was enabled."""


class GraphError(TensorError):
    """Misuse of the tape: detached tensors, double backward, non-scalar loss."""


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
    """One tape entry: the op, its inputs, and how to push gradients back."""

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered op records for one forward graph.

    Ops record only inside a ``with Tape():`` block. Records are appended in
    execution order, so the list is topologically sorted by construction.
    Leaving the block drops the records, so the graph lives exactly as long
    as the block; a tape is entered once.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._consumed: set[int] = set()
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
        self._consumed = set()

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


def _finish(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], list]) -> Tensor:
    """Wrap an op result, run the NaN guard, and record on the open tape."""
    tape = active_tape()
    requires = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if _nan_guard and not np.isfinite(out_data).all():
        where = f" (tape position {len(tape)})" if tape is not None else ""
        raise NonFiniteError(f"op '{op}' produced non-finite values{where}")
    if requires:
        out.tape = tape
        out.node_id = tape.append(_Record(op, tuple(inputs), backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every leaf that requires grad.

    The loss must be a scalar recorded on the innermost open tape; a second
    backward through the same node without re-running forward is rejected.
    """
    tape = loss.tape
    if tape is None:
        raise GraphError("backward: tensor is detached from the tape")
    if tape is not active_tape():
        raise GraphError("backward: tensor's tape is no longer open (its block has exited)")
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss.node_id in tape._consumed:
        raise GraphError("backward: already called for this node; re-run forward first")

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for idx in range(loss.node_id, -1, -1):
        g_out = grads.pop(idx, None)
        if g_out is None:
            continue
        rec = tape._records[idx]
        input_grads = rec.backward_fn(g_out)
        for t, g in zip(rec.inputs, input_grads):
            if g is None:
                continue
            if t.tape is tape:
                nid = t.node_id
                if nid in grads:
                    grads[nid] = grads[nid] + g
                else:
                    grads[nid] = g
            elif t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g
    tape._consumed.add(loss.node_id)


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


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_broadcast("add", a, b)
    out = a.data + b.data

    def bw(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]

    return _finish("add", out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_broadcast("sub", a, b)
    out = a.data - b.data

    def bw(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)]

    return _finish("sub", out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_broadcast("mul", a, b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def bw(g):
        return [_unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)]

    return _finish("mul", out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    out = a.data / b.data
    a_data, b_data = a.data, b.data

    def bw(g):
        ga = _unbroadcast(g / b_data, a.shape)
        gb = _unbroadcast(-g * a_data / (b_data * b_data), b.shape)
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


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, keeping a single-row 2-D product on the same BLAS kernel as
    a multi-row one (numpy sends a 1 x K product to gemv, which rounds
    differently), so a token's result does not depend on how many rows share
    its slab."""
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


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
    scatter-adds back into the rows, so repeated indices accumulate."""
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
            np.add.at(ga, idx, g)
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


def layernorm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean, unit variance (no affine)."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return [inv * (g - gm - y * gym)]

    return _finish("layer-norm", y, (a,), bw)


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


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal attention over (B, T, d) projections: per head,
    softmax(q k^T / sqrt(dh) + mask) v, with the heads merged back to d.

    The backward reuses the saved probabilities and recomputes nothing.
    """
    if not q.shape == k.shape == v.shape or q.data.ndim != 3:
        raise ShapeError(f"causal-attention: q, k, v must share one (B, T, d) shape, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    b, t, d = q.shape
    if d % n_heads:
        raise ShapeError(f"causal-attention: d={d} is not divisible by {n_heads} heads")
    h, dh = n_heads, d // n_heads

    def split(a):  # (B, T, d) -> contiguous (B, h, T, dh)
        return np.ascontiguousarray(a.reshape(b, t, h, dh).transpose(0, 2, 1, 3))

    def merge(a):  # (B, h, T, dh) -> (B, T, d)
        return a.transpose(0, 2, 1, 3).reshape(b, t, d)

    qh, vh = split(q.data), split(v.data)
    kt = np.ascontiguousarray(k.data.reshape(b, t, h, dh).transpose(0, 2, 3, 1))  # (B, h, dh, T)
    scale = q.dtype.type(1.0 / np.sqrt(dh))
    p = qh @ kt
    p *= scale
    p += _causal_mask(t, q.dtype)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(p @ vh)

    def bw(g):
        gh = split(g)
        gp = gh @ np.ascontiguousarray(vh.transpose(0, 1, 3, 2))
        gv = p.transpose(0, 1, 3, 2) @ gh
        # softmax backward from the saved output, then the scale
        gp -= (gp * p).sum(axis=-1, keepdims=True)
        gp *= p
        gp *= scale
        gq = gp @ np.ascontiguousarray(kt.transpose(0, 1, 3, 2))
        gk = (qh.transpose(0, 1, 3, 2) @ gp).transpose(0, 1, 3, 2)
        return [merge(gq), merge(gk), merge(gv)]

    return _finish("causal-attention", out, (q, k, v), bw)


def expert_ffn(x: Tensor, gates: Tensor, indices: np.ndarray, w1: Sequence[Tensor],
               b1: Sequence[Tensor], w2: Sequence[Tensor], b2: Sequence[Tensor]) -> Tensor:
    """Routed two-layer ReLU experts: row r of ``x`` (..., d) gets
    sum_j gates[r, e] * (relu(x[r] @ w1[e] + b1[e]) @ w2[e] + b2[e]) over
    its selected experts e = indices[r, j].

    A stable sort groups the (row, slot) pairs by expert with rows ascending,
    and each expert runs its GEMMs on one contiguous slice of the gathered
    rows. A row's contributions are summed from zero in ascending expert
    order; the backward sums its dx in descending expert order. Experts no
    row selects are never run and get no gradient.
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
    order = np.argsort(flat, kind="stable")
    rows, experts = order // (flat.size // m), flat[order]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n))])
    used = [i for i in range(n) if bounds[i + 1] > bounds[i]]
    slab = xf[rows]
    gate = gates.data.reshape(m, n)[rows, experts][:, None]

    out = np.zeros_like(xf)
    hidden, ys = {}, {}
    for i in used:
        lo, hi = bounds[i], bounds[i + 1]
        hid = _gemm(slab[lo:hi], w1[i].data)
        hid += b1[i].data
        np.maximum(hid, 0, out=hid)
        y = _gemm(hid, w2[i].data)
        y += b2[i].data
        out[rows[lo:hi]] += gate[lo:hi] * y
        hidden[i], ys[i] = hid, y

    def bw(g):
        gs = g.reshape(m, d)[rows]
        gy = gs * gate
        gx = np.zeros_like(xf)
        g_gate = np.zeros((m, n), dtype=gates.dtype)
        gw1, gb1, gw2, gb2 = ([None] * n for _ in range(4))
        for i in reversed(used):
            lo, hi = bounds[i], bounds[i + 1]
            g_gate[rows[lo:hi], i] = (gs[lo:hi] * ys[i]).sum(axis=1)
            gyi = gy[lo:hi]
            gb2[i] = gyi.sum(axis=0)
            gw2[i] = hidden[i].T @ gyi
            gh = gyi @ w2[i].data.T
            gh *= hidden[i] > 0
            gb1[i] = gh.sum(axis=0)
            gw1[i] = slab[lo:hi].T @ gh
            gx[rows[lo:hi]] += gh @ w1[i].data.T
        return [gx.reshape(x.shape), g_gate.reshape(gates.shape), *gw1, *gb1, *gw2, *gb2]

    return _finish("expert-ffn", out.reshape(x.shape), (x, gates, *w1, *b1, *w2, *b2), bw)


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
