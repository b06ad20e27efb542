"""Expert FFN and sparse dispatch tests against dense brute-force oracles."""

import numpy as np
import pytest

from s2moe.experts import ExpertBank, moe_combine
from s2moe.routing import RouterDecision, make_router, route
from s2moe.stochastic import RngStream
from s2moe.tensor import ShapeError, Tape, Tensor, backward, tsum

F64 = np.float64


def bank(n=4, d=4, h=3, seed=0, dtype=F64):
    return ExpertBank(n, d, h, RngStream(seed), dtype=dtype)


def dense_oracle(x, decision_gates, bk):
    """Independent dense evaluation: sum over ALL experts of gate_i * E_i(x)."""
    b, t, d = x.shape
    out = np.zeros_like(x)
    for i in range(bk.n_experts):
        h = np.maximum(x @ bk.w1[i].data + bk.b1[i].data, 0.0)
        e = h @ bk.w2[i].data + bk.b2[i].data
        out += decision_gates[..., i:i + 1] * e
    return out


def make_decision(x, bk, k, seed=0):
    params = make_router(bk.n_experts, x.shape[-1], "smoe", RngStream(seed + 100), dtype=x.dtype)
    return route(Tensor(x.copy()), params, k)


class TestExpertForward:
    def test_zero_parameters_give_zero(self):
        bk = bank()
        for w in bk.w1 + bk.w2:
            w.data[:] = 0.0
        out = bk.apply(Tensor(np.ones((1, 4), dtype=F64)), 2)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_identity_on_positive_orthant(self):
        bk = bank(n=2, d=3, h=3)
        bk.w1[0].data[:] = np.eye(3)
        bk.w2[0].data[:] = np.eye(3)
        bk.b1[0].data[:] = 0.0
        bk.b2[0].data[:] = 0.0
        x = np.array([0.5, 2.0, 0.0], dtype=F64)
        out = bk.apply(Tensor(x.reshape(1, 3)), 0)
        np.testing.assert_array_equal(out.data[0], x)

    def test_matches_straight_line_matvec_oracle(self):
        bk = bank(n=3, d=4, h=3, seed=7)
        x = np.random.default_rng(1).standard_normal(4)
        out = bk.apply(Tensor(x.reshape(1, 4), dtype=F64), 1)
        # hand-rolled oracle with explicit loops
        hidden = [max(0.0, sum(x[j] * bk.w1[1].data[j, a] for j in range(4)) + bk.b1[1].data[a])
                  for a in range(3)]
        expect = [sum(hidden[a] * bk.w2[1].data[a, j] for a in range(3)) + bk.b2[1].data[j]
                  for j in range(4)]
        np.testing.assert_allclose(out.data[0], expect, rtol=1e-12)


class TestMoeCombine:
    def test_full_selection_uniform_gates_is_mean(self):
        bk = bank(n=4, d=4, h=3, seed=2)
        x = np.random.default_rng(3).standard_normal((1, 2, 4))
        dec = make_decision(x, bk, k=4)
        uniform = np.full_like(dec.gates.data, 0.25)
        dec_uniform = RouterDecision(probs=Tensor(uniform.copy()), indices=dec.indices,
                                     gates=Tensor(uniform), k_used=4)
        out = moe_combine(Tensor(x), dec_uniform, bk)
        expect = dense_oracle(x, uniform, bk)
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_single_expert_single_gate(self):
        bk = bank(n=3, d=4, h=3, seed=4)
        x = np.random.default_rng(5).standard_normal((1, 1, 4))
        g = 0.37
        gates = np.zeros((1, 1, 3))
        gates[0, 0, 2] = g
        dec = RouterDecision(probs=Tensor(gates / g), indices=np.array([[[2]]]),
                             gates=Tensor(gates), k_used=1)
        out = moe_combine(Tensor(x), dec, bk)
        h = np.maximum(x[0, 0] @ bk.w1[2].data + bk.b1[2].data, 0.0)
        expect = g * (h @ bk.w2[2].data + bk.b2[2].data)
        np.testing.assert_allclose(out.data[0, 0], expect, rtol=1e-12)

    def test_sparse_equals_dense_oracle(self):
        bk = bank(n=4, d=4, h=3, seed=6)
        x = np.random.default_rng(7).standard_normal((2, 3, 4))
        dec = make_decision(x, bk, k=2, seed=6)
        out = moe_combine(Tensor(x), dec, bk)
        expect = dense_oracle(x, dec.gates.data, bk)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_inconsistent_decision_rejected(self):
        bk = bank(n=4)
        x = np.random.default_rng(0).standard_normal((1, 2, 4))
        dec = make_decision(x, bk, k=2)
        bad = RouterDecision(probs=dec.probs, indices=dec.indices + 7, gates=dec.gates, k_used=2)
        with pytest.raises(ShapeError, match="expert index outside"):
            moe_combine(Tensor(x), bad, bk)


@pytest.mark.parametrize("seed", range(8))
def test_sparse_dense_agreement_random_configs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 17))
    h = int(rng.integers(2, 17))
    k = int(rng.integers(1, n + 1))
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        bk = ExpertBank(n, d, h, RngStream(seed), dtype=dtype)
        x = rng.standard_normal((2, 3, d)).astype(dtype)
        dec = make_decision(x, bk, k, seed=seed)
        out = moe_combine(Tensor(x), dec, bk)
        # same weights, dense path evaluated in float64
        expect = dense_oracle(x.astype(np.float64), dec.gates.data.astype(np.float64), bk)
        np.testing.assert_allclose(out.data, expect, atol=tol * max(1.0, np.abs(expect).max()))


def test_identically_routed_tokens_produce_identical_outputs():
    bk = bank(n=4, d=4, h=3, seed=9)
    x_row = np.random.default_rng(10).standard_normal(4)
    x = np.tile(x_row, (1, 5, 1))
    dec = make_decision(x, bk, k=2, seed=9)
    out = moe_combine(Tensor(x), dec, bk).data
    for tkn in range(1, 5):
        np.testing.assert_array_equal(out[0, tkn], out[0, 0])


def test_unselected_expert_gets_zero_gradient():
    bk = bank(n=4, d=4, h=3, seed=11)
    x = np.random.default_rng(12).standard_normal((1, 3, 4))
    with Tape():
        xt = Tensor(x, dtype=F64)
        dec = make_decision(x, bk, k=1, seed=11)
        selected = set(dec.indices.reshape(-1).tolist())
        unselected = set(range(4)) - selected
        assert unselected, "routing happened to select every expert; pick another seed"
        out = moe_combine(xt, dec, bk)
        backward(tsum(out * out))
    for i in unselected:
        for t in (bk.w1[i], bk.b1[i], bk.w2[i], bk.b2[i]):
            assert t.grad is None or not np.any(t.grad)
    for i in selected:
        assert bk.w1[i].grad is not None and np.any(bk.w1[i].grad)
