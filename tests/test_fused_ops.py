"""The fused primitives, ``causal_attention``, ``affine_layer_norm``,
``expert_ffn``, ``add_mul``, ``stack_affine`` and ``mix``, against the
compositions of small ops they replace: the output and every input gradient
must be bitwise equal, at f32 and f64 (attention past T = 128 within the
stated rounding). A fused op's output without a tape equals its recorded
output. A non-finite value inside an op is still named by the NaN replay."""

import contextlib
import re
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_run_config
from s2moe import tensor
from s2moe.experts import ExpertBank
from s2moe.model import _dropout, _residual_dropout
from s2moe.routing import make_router, route
from s2moe.stochastic import RngStream, keep_threshold
from s2moe.tensor import (
    ShapeError,
    Tape,
    Tensor,
    _finish,
    add,
    add_mul,
    affine_layer_norm,
    backward,
    causal_attention,
    concat,
    expert_ffn,
    gather_rows,
    matmul,
    mix,
    mul,
    reshape,
    set_nan_guard,
    sigmoid,
    softmax,
    stack_affine,
    sub,
    transpose,
    tsum,
)
from s2moe.train import TrainAbort, train

DTYPES = (np.float32, np.float64)


# ---------------------------------------------------------------------------
# references: the compositions the fused ops replaced


def composed_attention(q, k, v, n_heads):
    b, t, d = q.shape
    h, dh = n_heads, d // n_heads

    def heads(a):
        return transpose(reshape(a, (b, t, h, dh)), (0, 2, 1, 3))

    qh, kh, vh = heads(q), heads(k), heads(v)
    scores = matmul(qh, transpose(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    mask = np.triu(np.full((t, t), -1e9, dtype=q.dtype), k=1)[None, None]
    attn = softmax(add(scores, Tensor(mask)), axis=-1)
    return reshape(transpose(matmul(attn, vh), (0, 2, 1, 3)), (b, t, d))


def composed_layer_norm(x, g, b, eps=1e-5):
    """A layer norm without affine, then ``mul`` by g and ``add`` of b."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv

    def bw(grad):
        gm = grad.mean(axis=-1, keepdims=True)
        gym = (grad * y).mean(axis=-1, keepdims=True)
        return [inv * (grad - gm - y * gym)]

    return add(mul(_finish("layer-norm", y, (x,), bw), g), b)


def combine_rows(segments, size):
    """Scatter-accumulate row blocks, in segment order, into ``size`` rows."""
    first = segments[0][1]
    out = np.zeros((size,) + first.shape[1:], dtype=first.dtype)
    for idx, rows in segments:
        out[idx] += rows.data
    idxs = [idx for idx, _ in segments]
    return _finish("combine-rows", out, tuple(rows for _, rows in segments),
                   lambda g: [g[idx] for idx in idxs])


def composed_experts(x, gates, indices, bank):
    """Per expert: gather its tokens, run it, scale by the gate; then combine."""
    b, t, d = x.shape
    n, m = bank.n_experts, b * t
    x_flat = reshape(x, (m, d))
    gate_rows = reshape(gates, (m * n, 1))
    idx_flat = indices.reshape(m, -1)
    segments = []
    for i in range(n):
        rows = np.nonzero((idx_flat == i).any(axis=1))[0]
        if rows.size:
            out_i = bank.apply(gather_rows(x_flat, rows), i)
            segments.append((rows, mul(gather_rows(gate_rows, rows * n + i), out_i)))
    return reshape(combine_rows(segments, m), (b, t, d))


def run_both(fused, composed, leaves, seed):
    """Output and leaf gradients of tsum(f(leaves) * c) for both functions."""
    results = []
    for f in (fused, composed):
        fresh = [Tensor(a.copy(), requires_grad=True) for a in leaves]
        with Tape():
            out = f(*fresh)
            c = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
            backward(tsum(mul(out, Tensor(c))))
        results.append((out.data, [t.grad for t in fresh]))
    return results


def assert_bitwise(fused, composed):
    (out_f, grads_f), (out_c, grads_c) = fused, composed
    assert out_f.dtype == out_c.dtype and np.array_equal(out_f, out_c)
    for i, (gf, gc) in enumerate(zip(grads_f, grads_c)):
        if gc is None:
            assert gf is None or not np.any(gf), i
            continue
        assert gf is not None and gf.dtype == gc.dtype and gf.shape == gc.shape, i
        assert np.array_equal(gf, gc), f"gradient {i} differs by {np.max(np.abs(gf - gc)):.3e}"


# ---------------------------------------------------------------------------
# causal attention


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, t, d, h", [(2, 7, 12, 3), (3, 16, 8, 2), (1, 1, 6, 2), (2, 5, 4, 4), (1, 40, 8, 2)])
def test_attention_matches_composition_bitwise(dtype, b, t, d, h):
    rng = np.random.default_rng(b * 100 + t)
    qkv = [rng.standard_normal((b, t, d)).astype(dtype) for _ in range(3)]
    fused = run_both(lambda q, k, v: causal_attention(q, k, v, h),
                     lambda q, k, v: composed_attention(q, k, v, h), qkv, seed=t)
    assert_bitwise(*fused)


def test_attention_full_block_matches_composition_bitwise():
    """Through the projections, as ``Attention.forward`` uses it: the input
    gradient sums three projection gradients in tape order."""
    rng = np.random.default_rng(5)
    for dtype in DTYPES:
        x = rng.standard_normal((2, 9, 8)).astype(dtype)
        ws = [(rng.standard_normal((8, 8)) / 3).astype(dtype) for _ in range(4)]

        def block(attend):
            def f(x, wq, wk, wv, wo):
                return matmul(attend(matmul(x, wq), matmul(x, wk), matmul(x, wv), 2), wo)
            return f

        assert_bitwise(*run_both(block(causal_attention), block(composed_attention), [x] + ws, seed=1))


def test_attention_mask_cache_is_keyed_by_length_and_dtype():
    """Two lengths in one process, and one length at f32 then at f64."""
    rng = np.random.default_rng(9)
    for t, dtype in ((6, np.float32), (3, np.float32), (6, np.float64), (3, np.float64), (6, np.float32)):
        qkv = [rng.standard_normal((2, t, 4)).astype(dtype) for _ in range(3)]
        fused = run_both(lambda q, k, v: causal_attention(q, k, v, 2),
                         lambda q, k, v: composed_attention(q, k, v, 2), qkv, seed=t)
        assert fused[0][0].dtype == dtype
        assert_bitwise(*fused)


def untaped(f, leaves):
    """``f``'s output on constant leaves with no tape open: nothing records."""
    return f(*(Tensor(a.copy()) for a in leaves)).data


@pytest.mark.parametrize("t", list(range(1, 129)) + [160])
def test_attention_tiles_past_one_tile_row(t):
    """Every T from 1 to 128, and 160: one to five row tiles, a last tile of
    1 to 33 rows (a one-row remainder joins the tile before), and the column
    blocks the backward builds from them. Without a tape the output equals
    the recorded one bitwise. Up to T = 128 output and all three gradients
    equal the full-square composition bitwise at f32 and f64; past 128
    (shorter row and column sums) they agree to 1e-14 at f64."""
    for dtype in DTYPES:
        rng = np.random.default_rng(t)
        qkv = [rng.standard_normal((2, t, 8)).astype(dtype) for _ in range(3)]
        fused = run_both(lambda q, k, v: causal_attention(q, k, v, 2),
                         lambda q, k, v: composed_attention(q, k, v, 2), qkv, seed=t)
        out = untaped(lambda q, k, v: causal_attention(q, k, v, 2), qkv)
        assert out.dtype == dtype and np.array_equal(out, fused[0][0])
        if t <= 128:
            assert_bitwise(*fused)
        elif dtype == np.float64:
            (out_f, grads_f), (out_c, grads_c) = fused
            for got, want in zip([out_f] + grads_f, [out_c] + grads_c):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_attention_backward_holds_only_causal_tiles():
    """One backward's peak stays below 1.5 (B, h, T, T) tensors: it holds the
    lower triangle of p and of the scores' gradient in column blocks, each
    freed after its product, and never the whole square (2.14 tensors when
    the backward filled the square)."""
    rng = np.random.default_rng(6)
    b, t, d, h = 1, 512, 4, 2
    q, k, v = (Tensor(rng.standard_normal((b, t, d)), requires_grad=True) for _ in range(3))
    c = Tensor(rng.standard_normal((b, t, d)))
    with Tape():
        loss = tsum(mul(causal_attention(q, k, v, h), c))
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    square = b * h * t * t * 8
    assert peak < 1.5 * square, f"backward peak {peak / square:.2f} (B, h, T, T) tensors"


def test_attention_keeps_row_statistics_not_probabilities():
    """No forward holds a (B, h, T, T) tensor: without a tape, on a tape with
    no input requiring grad, or recording. A recorded forward keeps each
    row's max and exp-sum, and its backward rebuilds the probabilities."""
    rng = np.random.default_rng(4)
    b, t, d, h = 1, 512, 4, 2
    qkv = [rng.standard_normal((b, t, d)) for _ in range(3)]
    probabilities = b * h * t * t * 8

    def peak(taped, requires_grad):
        tracemalloc.start()
        try:
            with Tape() if taped else contextlib.nullcontext():
                causal_attention(*(Tensor(a, requires_grad=requires_grad) for a in qkv), h)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(taped=False, requires_grad=True) < probabilities / 4
    assert peak(taped=True, requires_grad=False) < probabilities / 4
    assert peak(taped=True, requires_grad=True) < probabilities / 4


def test_attention_is_causal():
    rng = np.random.default_rng(2)
    q, k, v = (rng.standard_normal((1, 5, 4)) for _ in range(3))
    full = causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    k[:, 3:], v[:, 3:] = 0.0, 7.0
    cut = causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    np.testing.assert_array_equal(full[:, :3], cut[:, :3])


def test_attention_records_one_tape_entry():
    rng = np.random.default_rng(3)
    with Tape() as tape:
        q, k, v = (Tensor(rng.standard_normal((1, 4, 4)), requires_grad=True) for _ in range(3))
        causal_attention(q, k, v, 2)
        assert len(tape) == 1


def test_attention_rejects_bad_shapes():
    a = Tensor(np.zeros((1, 4, 6)))
    with pytest.raises(ShapeError, match="causal-attention"):
        causal_attention(a, Tensor(np.zeros((1, 3, 6))), a, 2)
    with pytest.raises(ShapeError, match="not divisible by 4 heads"):
        causal_attention(a, a, a, 4)


# ---------------------------------------------------------------------------
# affine layer norm


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(2, 7, 12), (3, 5), (1, 1, 4)])
def test_affine_layer_norm_matches_composition_bitwise(dtype, shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    d = shape[-1]
    leaves = [rng.standard_normal(shape).astype(dtype),
              (1.0 + 0.3 * rng.standard_normal(d)).astype(dtype),
              (0.1 * rng.standard_normal(d)).astype(dtype)]
    fused = run_both(affine_layer_norm, composed_layer_norm, leaves, seed=d)
    assert_bitwise(*fused)
    assert np.array_equal(untaped(affine_layer_norm, leaves), fused[0][0])


def test_affine_layer_norm_records_one_tape_entry():
    with Tape() as tape:
        x = Tensor(np.ones((2, 3, 4)) + np.arange(4), requires_grad=True)
        affine_layer_norm(x, Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True))
        assert len(tape) == 1


# ---------------------------------------------------------------------------
# residual dropout-add and noise perturbation: x + a * c


def composed_add_mul(x, a, c):
    return add(x, mul(a, Tensor(c)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_takes_grad", [True, False], ids=["residual", "perturb"])
def test_add_mul_matches_composition_bitwise(dtype, x_takes_grad):
    """As the block's dropout-add (x a recorded input, c a dropout mask) and
    as the noise perturbation ``x * n1 + n2`` (the constant n2 in x's
    place), the form ``stack_affine``'s lower half rounds as."""
    rng = np.random.default_rng(7)
    shape = (2, 5, 6)
    x, a = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    c = ((rng.uniform(size=shape) < 0.9).astype(dtype) / 0.9 if x_takes_grad
         else rng.normal(1.0, 0.3, size=shape).astype(dtype))
    if x_takes_grad:
        fused = run_both(lambda x, a: add_mul(x, a, c), lambda x, a: composed_add_mul(x, a, c), [x, a], seed=1)
    else:
        fused = run_both(lambda a: add_mul(Tensor(x), a, c), lambda a: composed_add_mul(Tensor(x), a, c), [a], seed=1)
    assert_bitwise(*fused)


def test_add_mul_records_one_entry_and_rejects_bad_shapes():
    with Tape() as tape:
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        add_mul(Tensor(np.ones((2, 3))), a, np.full((2, 3), 2.0))
        assert len(tape) == 1
    with pytest.raises(ShapeError, match="add-mul"):
        add_mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), np.ones(3))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("residual", [True, False], ids=["residual", "embedding"])
def test_byte_mask_dropout_matches_float_mask_bitwise(dtype, residual):
    """Dropout as ``add_mul`` with a bool keep-mask and the dtype's ``1 /
    keep`` against ``mul`` by the float mask ``mask / keep`` (after which the
    residual form adds x): output and every gradient equal bit for bit, with
    a negative entry, -0.0 and NaN under dropped positions (guard off)."""
    rng = np.random.default_rng(13)
    shape, keep = (2, 5, 6), 0.9
    x, a = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    mask = rng.uniform(size=shape) < keep
    mask.flat[:4] = False, False, False, True
    a.flat[:4] = -2.5, -0.0, np.nan, -0.0  # three dropped, the last kept
    scale = dtype(1.0) / dtype(keep)
    float_mask = mask.astype(dtype) / keep
    if residual:
        fused, composed, leaves = (lambda x, a: add_mul(x, a, mask, scale),
                                   lambda x, a: add(x, mul(a, Tensor(float_mask))), [x, a])
    else:
        fused, composed, leaves = (lambda a: add_mul(None, a, mask, scale),
                                   lambda a: mul(a, Tensor(float_mask)), [a])
    saved = set_nan_guard(False)
    try:
        (out_f, grads_f), (out_c, grads_c) = run_both(fused, composed, leaves, seed=3)
        with Tape() as tape:
            fused(*(Tensor(leaf, requires_grad=True) for leaf in leaves))
            assert len(tape) == 1
    finally:
        set_nan_guard(saved)
    assert out_f.dtype == dtype and out_f.tobytes() == out_c.tobytes()
    assert np.isnan(out_f.flat[2])
    if not residual:
        assert out_f.flat[1] == 0 and np.signbit(out_f.flat[:2]).all() and np.signbit(out_f.flat[3])
    assert len(grads_f) == len(leaves)
    for gf, gc in zip(grads_f, grads_c):
        assert gf.dtype == gc.dtype and gf.tobytes() == gc.tobytes()


def test_model_dropout_draws_the_float_mask_it_replaced():
    """The model's dropout helpers, on one stream, give what ``mul`` by the
    float mask ``mask.astype(dtype) * 2**16 / t`` gives, for the stream's
    16-bit keep-mask at threshold t = round(0.9 * 2**16)."""
    t = keep_threshold(0.9)
    assert t == 58982
    for dtype in DTYPES:
        rng = np.random.default_rng(17)
        x, a = (Tensor(rng.standard_normal((3, 4, 8)).astype(dtype)) for _ in range(2))
        float_mask = RngStream(5).keep_mask(a.shape, t).astype(dtype) * dtype(2 ** 16) / dtype(t)
        dropped = _dropout(a, 0.1, RngStream(5)).data
        added = _residual_dropout(x, a, 0.1, RngStream(5)).data
        assert dropped.tobytes() == (a.data * float_mask).tobytes()
        assert added.tobytes() == (x.data + a.data * float_mask).tobytes()


# ---------------------------------------------------------------------------
# the two-path blend: g * a + (1 - g) * b


def composed_mix(g, a, b):
    return add(mul(g, a), mul(sub(Tensor(np.asarray(1.0, dtype=g.dtype)), g), b))


@pytest.mark.parametrize("dtype", DTYPES)
def test_mix_matches_composition_bitwise(dtype):
    """The weight is a sigmoid output, as the blend gate makes it, so its two
    gradient terms meet on the tape, not in a leaf. The fused op blends the
    halves of one stacked operand, as the two-path layer's expert output is;
    ``concat`` hands each leaf its half of the stacked gradient."""
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2, 5, 1)).astype(dtype)
    a, b = (rng.standard_normal((2, 5, 6)).astype(dtype) for _ in range(2))
    fused = run_both(lambda z, a, b: mix(sigmoid(z), concat(a, b)),
                     lambda z, a, b: composed_mix(sigmoid(z), a, b), [z, a, b], seed=2)
    assert_bitwise(*fused)
    assert np.array_equal(untaped(lambda z, a, b: mix(sigmoid(z), concat(a, b)), [z, a, b]), fused[0][0])


def test_mix_records_one_entry_and_rejects_bad_shapes():
    y = Tensor(np.ones((4, 3, 4)), requires_grad=True)
    with Tape() as tape:
        mix(Tensor(np.full((2, 3, 1), 0.25), requires_grad=True), y)
        assert len(tape) == 1
    with pytest.raises(ShapeError, match="mix"):
        mix(Tensor(np.ones((2, 3, 4))), y)
    with pytest.raises(ShapeError, match="mix"):
        mix(Tensor(np.ones((4, 3, 1))), y)


# ---------------------------------------------------------------------------
# the two-path batch: a stacked on a * c + s


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "no-noise"])
def test_stack_affine_matches_composition_bitwise(dtype, noisy):
    """As ``perturb`` makes the two-path batch (x on x * n1 + n2) and as the
    layer stacks x on itself with its noise switched off: equal to
    concatenating x and its separately made copy."""
    rng = np.random.default_rng(13)
    shape = (3, 4, 5)
    a = rng.standard_normal(shape).astype(dtype)
    c = rng.normal(1.0, 0.3, size=shape).astype(dtype)
    s = rng.standard_normal(shape).astype(dtype)
    if noisy:
        fused = run_both(lambda a: stack_affine(a, c, s), lambda a: concat(a, add_mul(Tensor(s), a, c)), [a], seed=4)
    else:
        fused = run_both(lambda a: stack_affine(a), lambda a: concat(a, a), [a], seed=4)
    assert_bitwise(*fused)
    assert fused[0][0].shape == (6, 4, 5)
    assert np.array_equal(untaped(lambda a: stack_affine(a, c, s) if noisy else stack_affine(a), [a]), fused[0][0])


def test_stack_affine_records_one_entry_and_rejects_bad_shapes():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        stack_affine(a, np.full((2, 3), 2.0), np.ones((2, 3)))
        assert len(tape) == 1
    with pytest.raises(ShapeError, match="stack-affine"):
        stack_affine(a, np.ones(3), np.ones((2, 3)))
    with pytest.raises(ShapeError, match="stack-affine"):
        stack_affine(a, np.ones((2, 3)))
    with pytest.raises(ShapeError, match="concat"):
        concat(a, Tensor(np.ones((2, 4))))


# ---------------------------------------------------------------------------
# routed expert FFN


def gates_for(indices, n, rng, dtype):
    """Positive gates on the selected experts, exact zeros elsewhere."""
    gates = np.zeros(indices.shape[:-1] + (n,), dtype=dtype)
    np.put_along_axis(gates, indices, rng.uniform(0.1, 1.0, indices.shape).astype(dtype), axis=-1)
    return gates


def check_experts(indices, n, dtype, seed, d=6, d_exp=5):
    rng = np.random.default_rng(seed)
    b, t, _ = indices.shape
    bank = ExpertBank(n, d, d_exp, RngStream(seed), dtype=dtype)
    for bias in bank.b1 + bank.b2:  # nonzero biases, so their gradients matter
        bias.data[:] = rng.standard_normal(bias.shape) * 0.1
    x = rng.standard_normal((b, t, d)).astype(dtype)
    gates = gates_for(indices, n, rng, dtype)
    params = bank.w1 + bank.b1 + bank.w2 + bank.b2
    leaves = [x, gates] + [p.data for p in params]

    def load(ps):  # each run's fresh parameter leaves into the bank
        bank.w1, bank.b1, bank.w2, bank.b2 = (list(ps[j * n:(j + 1) * n]) for j in range(4))

    def fused(x, gates, *ps):
        load(ps)
        return expert_ffn(x, gates, indices, bank.w1, bank.b1, bank.w2, bank.b2)

    def composed(x, gates, *ps):
        load(ps)
        return composed_experts(x, gates, indices, bank)

    results = run_both(fused, composed, leaves, seed)
    assert_bitwise(*results)
    assert np.array_equal(untaped(fused, leaves), results[0][0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_experts_k1_with_an_idle_and_a_single_row_expert(dtype):
    # expert 2 gets exactly one row, expert 3 none
    indices = np.array([[[0], [1], [0]], [[2], [1], [1]]])
    check_experts(indices, n=4, dtype=dtype, seed=1)


@pytest.mark.parametrize("dtype", DTYPES)
def test_experts_k3_sums_each_row_in_fixed_order(dtype):
    # three contributions per row: dx is summed in descending expert order
    indices = np.array([[[0, 1, 2], [1, 0, 3], [3, 1, 0]], [[0, 3, 1], [4, 0, 1], [1, 3, 0]]])
    check_experts(indices, n=6, dtype=dtype, seed=2)


@pytest.mark.parametrize("dtype", DTYPES)
def test_experts_single_token(dtype):
    """One token, as in the Jacobian probe: every expert runs on one row."""
    check_experts(np.array([[[2, 0]]]), n=3, dtype=dtype, seed=3)


@pytest.mark.parametrize("seed", range(6))
def test_experts_match_composition_on_routed_batches(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, n + 1))
    for dtype in DTYPES:
        x = rng.standard_normal((2, 7, 6)).astype(dtype)
        decision = route(Tensor(x), make_router(n, 6, "smoe", RngStream(seed), dtype=dtype), k)
        check_experts(decision.indices, n=n, dtype=dtype, seed=seed)


@pytest.mark.parametrize("dtype", DTYPES)
def test_experts_k2_with_an_idle_and_a_single_row_expert(dtype):
    # expert 2 is one row's second choice, expert 3 no row's
    indices = np.array([[[0, 1], [1, 0], [0, 2]], [[4, 1], [1, 4], [0, 4]]])
    check_experts(indices, n=5, dtype=dtype, seed=4)


@pytest.mark.parametrize("dtype", DTYPES)
def test_experts_k_equal_to_n_runs_every_expert_on_every_row(dtype):
    rng = np.random.default_rng(5)
    indices = np.stack([rng.permutation(4) for _ in range(6)]).reshape(2, 3, 4)
    check_experts(indices, n=4, dtype=dtype, seed=5)


@pytest.mark.parametrize("dtype", DTYPES)
def test_experts_every_row_on_one_expert_runs_one_group(dtype):
    check_experts(np.full((2, 5, 1), 2), n=4, dtype=dtype, seed=6)


@pytest.mark.parametrize("k", [1, 2])
def test_experts_rows_of_negative_zero_terms_come_out_positive_zero(k):
    """A row whose gates are zero gets only -0.0 terms (zero times a negative
    output). Summed from zero, as the reference's scatter-add sums, its
    output row is +0.0, and no input-gradient element is -0.0."""
    n, d = 3, 4
    rng = np.random.default_rng(7)
    bank = ExpertBank(n, d, 5, RngStream(7), dtype=np.float64)
    for bias in bank.b2:
        bias.data[:] = -100.0  # every expert's output is negative
    indices = np.array([[[0, 1], [1, 2], [2, 0], [0, 2]]])[..., :k]
    gates = gates_for(indices, n, rng, np.float64)
    gates[0, 1] = 0.0
    x = Tensor(rng.standard_normal((1, 4, d)), requires_grad=True)
    with Tape():
        out = expert_ffn(x, Tensor(gates), indices, bank.w1, bank.b1, bank.w2, bank.b2)
        backward(tsum(mul(out, Tensor(rng.standard_normal(out.shape)))))
    assert np.all(out.data[0, 1] == 0) and not np.any(np.signbit(out.data[0, 1]))
    assert not np.any(np.signbit(x.grad) & (x.grad == 0))


def test_experts_refuse_a_row_that_selects_one_expert_twice():
    bank = ExpertBank(3, 4, 5, RngStream(0), dtype=np.float64)
    x, gates = Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 3)))
    with pytest.raises(ShapeError, match="twice"):
        expert_ffn(x, gates, np.array([[[0, 1], [2, 2]]]), bank.w1, bank.b1, bank.w2, bank.b2)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("d, d_exp, m", [(128, 256, 64), (32, 16, 320), (256, 512, 64)],
                         ids=["desk", "narrow", "paper-base"])
def test_expert_input_gradient_rows_do_not_depend_on_slab_height(dtype, d, d_exp, m):
    """The rows of a 1- to 12-row expert slab get the same output and input
    gradient as the same rows inside a tall slab, so a clean row's result
    does not depend on how many noisy rows share its expert. Unpadded, a
    transposed-view product rounds a slab of up to 9 rows apart at desk
    widths and up to 75 at the narrow ones, and at paper-base ``hid @ w2``
    rounds a slab of up to 7 rows apart."""
    rng = np.random.default_rng(17)
    bank = ExpertBank(2, d, d_exp, RngStream(17), dtype=dtype)
    x = rng.standard_normal((1, m, d)).astype(dtype)
    gates = rng.uniform(0.1, 1.0, (1, m, 2)).astype(dtype)
    c = rng.standard_normal((1, m, d)).astype(dtype)

    def output_and_input_gradient(indices):
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape():
            out = expert_ffn(xt, Tensor(gates), indices, bank.w1, bank.b1, bank.w2, bank.b2)
            backward(tsum(mul(out, Tensor(c))))
        return out.data[0], xt.grad[0]

    tall = output_and_input_gradient(np.zeros((1, m, 1), dtype=np.int64))
    for rows in range(1, 13):
        indices = np.ones((1, m, 1), dtype=np.int64)
        indices[0, :rows] = 0
        for got, want in zip(output_and_input_gradient(indices), tall):
            assert np.array_equal(got[:rows], want[:rows]), rows


def test_experts_record_one_tape_entry_and_skip_idle_experts():
    bank = ExpertBank(3, 4, 5, RngStream(0), dtype=np.float64)
    indices = np.array([[[0], [2]]])
    with Tape() as tape:
        out = expert_ffn(Tensor(np.ones((1, 2, 4))), Tensor(np.full((1, 2, 3), 0.5)), indices,
                         bank.w1, bank.b1, bank.w2, bank.b2)
        assert len(tape) == 1
        backward(tsum(out))
    assert bank.w1[1].grad is None and bank.b2[1].grad is None
    assert bank.w1[0].grad is not None and bank.w1[2].grad is not None


@pytest.mark.parametrize("n, d, d_exp", [(8, 128, 256), (16, 64, 64), (4, 6, 5)])
def test_experts_untaped_combine_reuses_the_hidden_buffer(monkeypatch, n, d, d_exp):
    """An untaped forward at k = 2 gathers the combine's terms into the array
    that held the hidden rows, whatever the widths and expert count, so it
    makes no (rows, d) array for them; its output is the recorded one's."""
    rng = np.random.default_rng(n)
    bank = ExpertBank(n, d, d_exp, RngStream(n), dtype=np.float32)
    x = rng.standard_normal((4, 64, d)).astype(np.float32)
    indices = np.stack([rng.permutation(n)[:2] for _ in range(4 * 64)]).reshape(4, 64, 2)
    gates = Tensor(gates_for(indices, n, rng, np.float32))
    with Tape():
        recorded = expert_ffn(Tensor(x, requires_grad=True), gates, indices, bank.w1, bank.b1, bank.w2, bank.b2)
    terms, gather_sum = [], tensor._gather_sum

    def spy(out, slab, slots, scale=None, term=None):
        terms.append(term)
        gather_sum(out, slab, slots, scale, term)

    monkeypatch.setattr(tensor, "_gather_sum", spy)
    out = expert_ffn(Tensor(x), gates, indices, bank.w1, bank.b1, bank.w2, bank.b2)
    assert len(terms) == 1 and terms[0] is not None and terms[0].shape == (4 * 64, d)
    assert out.data.tobytes() == recorded.data.tobytes()


def test_experts_reject_bad_routing():
    bank = ExpertBank(3, 4, 5, RngStream(0), dtype=np.float64)
    x, gates = Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 3)))
    with pytest.raises(ShapeError, match="outside"):
        expert_ffn(x, gates, np.array([[[0], [3]]]), bank.w1, bank.b1, bank.w2, bank.b2)
    with pytest.raises(ShapeError, match="gates"):
        expert_ffn(x, Tensor(np.ones((1, 2, 2))), np.array([[[0], [1]]]), bank.w1, bank.b1, bank.w2, bank.b2)


# ---------------------------------------------------------------------------
# the NaN replay names the fused op


def _abort_message(small_corpus, out_dir, blow_up):
    cfg = tiny_run_config(small_corpus, out_dir, steps=2)
    with pytest.raises(TrainAbort) as err:
        train(cfg, model_hook=blow_up)
    return str(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_attention_overflow_named_by_replay(small_corpus, tmp_path):
    def blow_up(model):  # q.k overflows float32; the projections stay finite
        attn = model.blocks[0].attn
        attn.wq.data *= 1e20
        attn.wk.data *= 1e20

    message = _abort_message(small_corpus, tmp_path / "attn", blow_up)
    assert re.fullmatch(r"non-finite value at step 0 \(op 'causal-attention' produced non-finite "
                        r"values \(tape position \d+\)\); last checkpoint: none", message), message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_expert_overflow_named_by_replay(small_corpus, tmp_path):
    def blow_up(model):  # the second expert GEMM overflows float32
        bank = model.blocks[0].moe.experts
        for w in bank.w1 + bank.w2:
            w.data *= 1e20

    message = _abort_message(small_corpus, tmp_path / "experts", blow_up)
    assert re.fullmatch(r"non-finite value at step 0 \(op 'expert-ffn' produced non-finite "
                        r"values \(tape position \d+\)\); last checkpoint: none", message), message
