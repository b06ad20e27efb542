"""The two fused primitives, ``causal_attention`` and ``expert_ffn``, against
the compositions of small ops they replace: the output and every input
gradient must be bitwise equal, at f32 and f64. A non-finite value inside
either op is still named by the NaN replay."""

import re

import numpy as np
import pytest

from conftest import tiny_run_config
from s2moe.experts import ExpertBank
from s2moe.routing import make_router, route
from s2moe.stochastic import RngStream
from s2moe.tensor import (
    ShapeError,
    Tape,
    Tensor,
    _finish,
    add,
    backward,
    causal_attention,
    expert_ffn,
    gather_rows,
    matmul,
    mul,
    reshape,
    softmax,
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
@pytest.mark.parametrize("b, t, d, h", [(2, 7, 12, 3), (3, 16, 8, 2), (1, 1, 6, 2), (2, 5, 4, 4)])
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

    assert_bitwise(*run_both(fused, composed, leaves, seed))


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
