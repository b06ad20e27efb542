"""Tensor-core tests: forward definitions, tape semantics, and the
finite-difference oracle every other module leans on."""

import gc
import math
import weakref

import numpy as np
import pytest

from s2moe.tensor import (
    GraphError,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    add,
    backward,
    causal_attention,
    cross_entropy_logits,
    div,
    expert_ffn,
    gather_rows,
    grad_check,
    layernorm,
    matmul,
    mean,
    mul,
    power,
    relu,
    reshape,
    set_nan_guard,
    sigmoid,
    softmax,
    tsum,
    transpose,
)

F64 = np.float64


def t64(x, rg=False):
    return Tensor(np.asarray(x, dtype=F64), requires_grad=rg)


class TestForwardDefinitions:
    def test_matmul_identity(self):
        out = matmul(t64(np.eye(2)), t64([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_softmax_symmetry(self):
        out = softmax(t64([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_cross_entropy_uniform(self):
        logits = t64(np.zeros((3, 256)))
        out = cross_entropy_logits(logits, np.array([0, 17, 255]))
        assert out.item() == pytest.approx(math.log(256), abs=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    @pytest.mark.parametrize("left", [(3,), (2, 3)], ids=["vector", "matrix"])
    def test_matmul_refuses_1d_right_operand(self, left):
        with pytest.raises(ShapeError) as err:
            matmul(t64(np.ones(left)), t64(np.ones(3)))
        assert str(left) in str(err.value) and "(3,)" in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_guard(self):
        with pytest.raises(NonFiniteError) as err:
            div(t64([1.0], rg=True), t64([0.0]))
        assert "div" in str(err.value)
        set_nan_guard(False)
        try:
            out = div(Tensor(np.array([1.0]), requires_grad=True), Tensor(np.array([0.0])))
            assert np.isinf(out.data[0])
        finally:
            set_nan_guard(True)
        # finite values whose float64 sum overflows are still finite
        out = add(t64([[1e308], [1e308]], rg=True), t64([[0.0], [0.0]]))
        np.testing.assert_array_equal(out.data, [[1e308], [1e308]])

    def test_cross_entropy_rejects_bad_target(self):
        with pytest.raises(ShapeError):
            cross_entropy_logits(t64(np.zeros((2, 5))), np.array([0, 5]))

    @pytest.mark.parametrize("idx", [[[0, -1]], [0, 3]], ids=["negative", "past-last-row"])
    def test_gather_rows_rejects_index_outside_rows(self, idx):
        with pytest.raises(ShapeError) as err:
            gather_rows(t64(np.zeros((3, 2))), np.array(idx))
        assert "(3, 2)" in str(err.value)


class TestBackward:
    def test_sum_of_squares(self):
        with Tape():
            x = t64([1.5], rg=True)
            loss = tsum(mul(x, x))
            backward(loss)
        np.testing.assert_allclose(x.grad, [3.0], atol=1e-15)

    def test_softmax_rows_sum_to_one_gives_zero_grad(self):
        with Tape():
            x = t64([0.3, -1.2, 2.0], rg=True)
            loss = tsum(softmax(x))
            backward(loss)
        np.testing.assert_allclose(x.grad, np.zeros(3), atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with Tape():
            x = t64([1.0, 2.0], rg=True)
            y = mul(x, x)
            with pytest.raises(GraphError):
                backward(y)

    def test_double_backward_rejected(self):
        with Tape():
            x = t64([2.0], rg=True)
            loss = tsum(mul(x, x))
            backward(loss)
            with pytest.raises(GraphError):
                backward(loss)

    def test_detached_tensor_rejected(self):
        with pytest.raises(GraphError):
            backward(t64([1.0], rg=True))

    def test_three_layer_composition_matches_finite_differences(self):
        # independent oracle: central differences, eps=1e-5, 64-bit
        rng = np.random.default_rng(0)
        w1 = rng.standard_normal((8, 8))
        w2 = rng.standard_normal((8, 8))
        w3 = rng.standard_normal((8, 1))

        def f(x):
            h1 = relu(matmul(x, Tensor(w1, dtype=F64)))
            h2 = sigmoid(matmul(h1, Tensor(w2, dtype=F64)))
            return tsum(matmul(h2, Tensor(w3, dtype=F64)))

        point = t64(rng.standard_normal((3, 8)))
        assert grad_check(f, point, epsilon=1e-5) < 1e-4

    def test_tape_replay_reproduces_outputs_and_grads(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 4))
        x0 = rng.standard_normal((2, 4))
        results = []
        for _ in range(2):
            with Tape():
                x = t64(x0, rg=True)
                loss = tsum(relu(matmul(x, Tensor(w, dtype=F64))))
                backward(loss)
                results.append((loss.item(), x.grad.copy()))
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])


class TestGradCheck:
    def test_constant_function_has_zero_error(self):
        assert grad_check(lambda x: Tensor(np.asarray(1.0, dtype=F64)) + tsum(x) * 0.0,
                          t64(np.ones(4))) == 0.0

    def test_relu_network_away_from_kink(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((6, 6))
        point = rng.standard_normal(6)
        pre = point @ w
        # keep probes clear of the ReLU kink
        assert np.min(np.abs(pre)) > 1e-3

        def f(x):
            return tsum(relu(matmul(x, Tensor(w, dtype=F64))))

        assert grad_check(f, t64(point)) < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_perturbation_names_coordinate(self):
        def f(x):
            return tsum(power(x, 0.5))

        with pytest.raises(NonFiniteError) as err:
            # x[1] - eps goes negative -> sqrt is NaN
            grad_check(f, t64([1.0, 1e-9]), epsilon=1e-5)
        assert "coordinate 1" in str(err.value)


@pytest.mark.parametrize("seed", range(12))
def test_primitive_gradients_match_finite_differences(seed):
    """Every smooth primitive agrees with central differences at 64-bit."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    w = rng.standard_normal((d, m))
    idx = rng.integers(0, 3, size=4)
    rows = rng.integers(0, 3, size=3)
    cols = rng.integers(0, d, size=3)
    c1 = Tensor(rng.standard_normal((3, d)), dtype=F64)
    c2 = Tensor(rng.standard_normal((3, d)), dtype=F64)
    c3 = Tensor(rng.standard_normal((3, d)), dtype=F64)
    targets = rng.integers(0, d, size=3)
    heads = 2 if d % 2 == 0 else 1
    # 4 experts of width 3: expert 2 gets one row, expert 3 none
    slots = np.array([[0, 2], [1, 0], [0, 1]])
    ex_rng = np.random.default_rng(1000 + seed)
    wg = Tensor(ex_rng.standard_normal((d, 4)), dtype=F64)
    w1 = [Tensor(ex_rng.standard_normal((d, 3)), dtype=F64) for _ in range(4)]
    b1 = [Tensor(ex_rng.standard_normal(3) * 0.1, dtype=F64) for _ in range(4)]
    w2 = [Tensor(ex_rng.standard_normal((3, d)), dtype=F64) for _ in range(4)]
    b2 = [Tensor(ex_rng.standard_normal(d) * 0.1, dtype=F64) for _ in range(4)]
    mm_rng = np.random.default_rng(2000 + seed)
    cells = mm_rng.integers(0, 3 * d, size=44)
    c4 = Tensor(mm_rng.standard_normal((2, 3, 5)), dtype=F64)

    def batched_matmul(x):
        # a (2, 3, 4) @ (4, 5) product, both operands drawn from x's entries
        flat = reshape(x, (3 * d, 1))
        a = reshape(gather_rows(flat, cells[:24]), (2, 3, 4))
        b = reshape(gather_rows(flat, cells[24:]), (4, 5))
        return tsum(mul(matmul(a, b), c4))

    def attention(x):
        q, k, v = (reshape(a, (1, 3, d)) for a in (x, mul(x, c1), x * 0.5 + c2))
        return tsum(mul(causal_attention(q, k, v, heads), reshape(c3, (1, 3, d))))

    def experts(x):
        # x is the routed rows, the gate source and expert 0's first weight
        gates = sigmoid(matmul(x, wg))
        return tsum(mul(expert_ffn(x, gates, slots, [reshape(x, (d, 3))] + w1[1:], b1, w2, b2), c1))

    cases = {
        "matmul": lambda x: tsum(matmul(x, Tensor(w, dtype=F64))),
        "matmul (2, 3, 4) @ (4, 5)": batched_matmul,
        "add/mul": lambda x: tsum(mul(x + 0.5, x * 1.5 - 0.25)),
        "div": lambda x: tsum(div(x, x * x + 2.0)),
        "sigmoid": lambda x: tsum(sigmoid(x)),
        "softmax": lambda x: tsum(mul(softmax(x, axis=-1), c1)),
        "layer-norm": lambda x: tsum(mul(layernorm(x), c2)),
        "pow": lambda x: tsum(power(x * x + 1.0, 0.5)),
        "mean": lambda x: mean(x) + tsum(mean(mul(x, x), axis=-1)),
        "reshape/transpose": lambda x: tsum(mul(transpose(reshape(x, (d, 3)), (1, 0)), c3)),
        # repeated rows accumulate; 2-D ids as in the token embedding; distinct
        # increasing flat (row, col) pairs as in the expert gates
        "gather-rows": lambda x: tsum(power(gather_rows(x, idx), 2.0)),
        "gather-rows 2-D ids": lambda x: tsum(power(gather_rows(x, idx.reshape(2, 2)), 2.0)),
        "gather-rows pairs": lambda x: tsum(power(gather_rows(reshape(x, (3 * d, 1)),
                                                              np.unique(rows * d + cols)), 2.0)),
        "cross-entropy": lambda x: cross_entropy_logits(x, targets),
        "causal-attention": attention,
        "expert-ffn": experts,
    }
    point = t64(rng.standard_normal((3, d)))
    for name, f in cases.items():
        err = grad_check(f, point, epsilon=1e-5)
        assert err < 1e-4, f"{name}: rel err {err}"


@pytest.mark.parametrize("n", [1, 8, 257])
@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed-view"])
def test_matmul_by_2d_matches_per_sequence_products(n, transposed):
    """A (B, T, K) @ (K, N) product runs as one (B*T, K) GEMM: its output and
    input gradient match one product per sequence to 1e-12 relative, and its
    weight gradient is exactly the per-sequence products summed over B."""
    rng = np.random.default_rng(n)
    a0 = rng.standard_normal((3, 40, 24))
    w0 = rng.standard_normal((n, 24)).T if transposed else rng.standard_normal((24, n))
    g = rng.standard_normal((3, 40, n))
    a, w = Tensor(a0, requires_grad=True), Tensor(w0, requires_grad=True)
    with Tape():
        out = matmul(a, w)
        backward(tsum(mul(out, Tensor(g))))

    for got, want in ((out.data, np.stack([s @ w0 for s in a0])),
                      (a.grad, np.stack([s @ w0.T for s in g]))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_array_equal(w.grad, (np.swapaxes(a0, -1, -2) @ g).sum(axis=0))


@pytest.mark.parametrize("seed", range(100))
def test_smooth_composition_invariant(seed):
    """Composed smooth primitives match finite differences, random shapes <= 16."""
    rng = np.random.default_rng(10_000 + seed)
    rows = int(rng.integers(1, 17))
    d = int(rng.integers(2, 17))
    m = int(rng.integers(2, 17))
    w = Tensor(rng.standard_normal((d, m)), dtype=F64)
    c = Tensor(rng.standard_normal((rows, m)), dtype=F64)

    def f(x):
        h = sigmoid(matmul(layernorm(x), w))
        xc = x - mean(x, axis=-1, keepdims=True)
        var = tsum(mean(mul(xc, xc), axis=-1))
        return tsum(mul(softmax(h, axis=-1), c)) + mean(x) + var * 0.1

    err = grad_check(f, t64(rng.standard_normal((rows, d))), epsilon=1e-5)
    assert err < 1e-4


def test_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 7)).astype(np.float32)
    w = rng.standard_normal((7, 7)).astype(np.float32)
    a = softmax(matmul(Tensor(x), Tensor(w))).data
    b = softmax(matmul(Tensor(x), Tensor(w))).data
    assert a.tobytes() == b.tobytes()


def test_nothing_records_outside_a_tape():
    x = t64([1.0, 2.0], rg=True)
    y = mul(x, x)
    assert not y.requires_grad and y.node_id is None and y.tape is None


class TestTapeLifetime:
    def test_intermediates_freed_when_block_exits(self):
        # no cyclic GC pass may run: the block's exit alone must free the graph
        enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape():
                x = t64([1.0, 2.0], rg=True)
                h = mul(x, x)
                alive = weakref.ref(h.data)
                loss = tsum(mul(h, h))
                del h
                backward(loss)
                assert alive() is not None
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_backward_after_block_exit_rejected(self):
        with Tape():
            x = t64([2.0], rg=True)
            loss = tsum(mul(x, x))
        with pytest.raises(GraphError):
            backward(loss)

    def test_spent_tape_cannot_be_reentered(self):
        tape = Tape()
        with tape:
            pass
        with pytest.raises(GraphError):
            with tape:
                pass
