"""Noise modeling, blend gate, and two-path layer tests."""

import numpy as np
import pytest

from s2moe.experts import moe_combine
from s2moe.losses import balance_loss
from s2moe.moe import S2MoeLayer, SmoeLayer
from s2moe.routing import route
from s2moe.stochastic import (
    RngStream,
    blend_gate,
    compute_batch_stats,
    make_blend_gate,
    perturb,
)
from s2moe.tensor import Tape, Tensor, add, add_mul, backward, mean, mul, sub, tsum

F64 = np.float64


class TestBatchStats:
    def test_constant_feature(self):
        x = Tensor(np.full((2, 3, 4), 1.7, dtype=F64))
        stats = compute_batch_stats(x)
        np.testing.assert_allclose(stats.mu, 1.7)
        np.testing.assert_array_equal(stats.sigma, np.zeros(4))

    def test_two_point_population_std(self):
        x = Tensor(np.array([[[1.0], [3.0]]]))
        stats = compute_batch_stats(x)
        assert stats.mu[0] == pytest.approx(2.0)
        assert stats.sigma[0] == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, 5))
        stats = compute_batch_stats(Tensor(x, dtype=F64))
        flat = x.reshape(-1, 5)
        mu = np.array([sum(flat[:, j]) / flat.shape[0] for j in range(5)])
        sig = np.sqrt(np.array([sum((flat[:, j] - mu[j]) ** 2) / flat.shape[0] for j in range(5)]))
        np.testing.assert_allclose(stats.mu, mu, rtol=1e-12)
        np.testing.assert_allclose(stats.sigma, sig, rtol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            compute_batch_stats(Tensor(np.zeros((0, 3, 4))))


class TestPerturb:
    def test_zero_sigma_is_deterministic_shift(self):
        x = Tensor(np.full((2, 3, 4), 0.5, dtype=F64))
        stats = compute_batch_stats(x)
        out = perturb(x, stats, RngStream(0))
        assert out.shape == (4, 3, 4) and out.data[:2].tobytes() == x.data.tobytes()
        np.testing.assert_allclose(out.data[2:], x.data + stats.mu, atol=1e-15)

    def test_same_seed_counter_reproduces(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 4)), dtype=F64)
        stats = compute_batch_stats(x)
        a = perturb(x, stats, RngStream(42, counter=5)).data
        b = perturb(x, stats, RngStream(42, counter=5)).data
        assert a.tobytes() == b.tobytes()

    def test_monte_carlo_mean(self):
        # oracle: E[n1*x + n2] = x + mu; per-element std sigma*sqrt(x^2+1)
        rng = np.random.default_rng(2)
        x = (0.3 * rng.standard_normal((2, 2, 3))).astype(F64)
        xt = Tensor(x)
        stats = compute_batch_stats(xt)
        stream = RngStream(7)
        n = 10_000
        acc = np.zeros_like(x)
        for _ in range(n):
            acc += perturb(xt, stats, stream).data[2:]
        acc /= n
        target = x + stats.mu
        bound = 4.0 * np.broadcast_to(stats.sigma, x.shape) / np.sqrt(n)
        assert np.all(np.abs(acc - target) <= bound)

    def test_gradient_flows_through_x_only(self):
        rng = np.random.default_rng(3)
        with Tape():
            x = Tensor(rng.standard_normal((1, 4, 3)), dtype=F64, requires_grad=True)
            stats = compute_batch_stats(x)
            out = perturb(x, stats, RngStream(11, counter=2))
            backward(tsum(out))
        # d(x + n1 * x + n2)/dx = 1 + n1, recover the draw and compare
        n1 = RngStream(11, counter=2).normal(x.shape, loc=1.0,
                                             scale=np.broadcast_to(stats.sigma, x.shape))
        np.testing.assert_allclose(x.grad, 1.0 + n1, rtol=1e-12)


class TestBlendGate:
    def test_zero_params_give_half(self):
        params = make_blend_gate(4, RngStream(0), dtype=F64)
        params.w.data[:] = 0.0
        g = blend_gate(Tensor(np.random.default_rng(1).standard_normal((2, 3, 4))), params)
        np.testing.assert_allclose(g.data, 0.5)
        assert g.shape == (2, 3, 1)

    def test_saturation(self):
        params = make_blend_gate(4, RngStream(0), dtype=F64)
        params.w.data[:] = 0.0
        params.b.data[:] = 30.0
        g = blend_gate(Tensor(np.zeros((1, 1, 4), dtype=F64)), params)
        assert g.data[0, 0, 0] > 1.0 - 1e-9

    def test_matches_scalar_sigmoid_oracle(self):
        import math
        params = make_blend_gate(4, RngStream(5), dtype=F64)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 4))
        g = blend_gate(Tensor(x, dtype=F64), params)
        for tkn in range(2):
            z = sum(x[0, tkn, j] * params.w.data[j, 0] for j in range(4)) + params.b.data[0]
            assert g.data[0, tkn, 0] == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-12)

    def test_open_interval(self):
        params = make_blend_gate(3, RngStream(1), dtype=F64)
        x = Tensor(np.random.default_rng(2).standard_normal((4, 5, 3)) * 10, dtype=F64)
        g = blend_gate(x, params).data
        assert np.all(g > 0.0) and np.all(g < 1.0)


def make_pair_layers(d=6, n=4, h=5, seed=0, dtype=F64, noise_enabled=True):
    """An S2MoE layer and a baseline layer sharing identical weights."""
    s2 = S2MoeLayer(d, n, h, RngStream(seed), dtype=dtype, noise_enabled=noise_enabled)
    base = SmoeLayer(d, n, h, RngStream(seed + 1), dtype=dtype)
    base.router.w_e.data[:] = s2.router.w_e.data
    for i in range(n):
        base.experts.w1[i].data[:] = s2.experts.w1[i].data
        base.experts.b1[i].data[:] = s2.experts.b1[i].data
        base.experts.w2[i].data[:] = s2.experts.w2[i].data
        base.experts.b2[i].data[:] = s2.experts.b2[i].data
    return s2, base


class TestS2MoeForward:
    def test_saturated_gate_matches_baseline(self):
        s2, base = make_pair_layers(seed=3)
        s2.blend.w.data[:] = 0.0
        s2.blend.b.data[:] = 30.0
        x = Tensor(np.random.default_rng(4).standard_normal((2, 3, 6)), dtype=F64)
        y2, _ = s2.forward(x, k=2, rng=RngStream(9))
        yb, _ = base.forward(x, k=2)
        assert np.max(np.abs(y2.data - yb.data)) < 1e-9

    def test_eval_mode_is_bitwise_baseline(self):
        s2, base = make_pair_layers(seed=5)
        x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 6)), dtype=F64)
        y2, _ = s2.forward(x, k=2)
        yb, _ = base.forward(x, k=2)
        assert y2.data.tobytes() == yb.data.tobytes()

    def test_constant_batch_matches_dense_two_path_oracle(self):
        s2, _ = make_pair_layers(seed=7)
        row = np.random.default_rng(8).standard_normal(6)
        x = Tensor(np.tile(row, (2, 3, 1)), dtype=F64)  # sigma = 0 per dimension
        y, aux = s2.forward(x, k=2, rng=RngStream(10))

        # dense oracle in plain numpy: g*f(x) + (1-g)*f(x+mu)
        def dense_smoe(inp):
            scores = inp @ s2.router.w_e.data.T
            e = np.exp(scores - scores.max(-1, keepdims=True))
            probs = e / e.sum(-1, keepdims=True)
            order = np.argsort(-probs, axis=-1, kind="stable")[..., :2]
            gates = np.zeros_like(probs)
            np.put_along_axis(gates, order, np.take_along_axis(probs, order, -1), -1)
            out = np.zeros_like(inp)
            for i in range(4):
                hh = np.maximum(inp @ s2.experts.w1[i].data + s2.experts.b1[i].data, 0)
                out += gates[..., i:i + 1] * (hh @ s2.experts.w2[i].data + s2.experts.b2[i].data)
            return out

        mu = row  # constant batch: mu equals the row itself
        g = 1.0 / (1.0 + np.exp(-(x.data @ s2.blend.w.data + s2.blend.b.data)))
        expect = g * dense_smoe(x.data) + (1 - g) * dense_smoe(x.data + mu)
        np.testing.assert_allclose(y.data, expect, atol=1e-12)

    def test_eval_cost_is_single_path(self):
        s2, _ = make_pair_layers(seed=11)
        x = Tensor(np.random.default_rng(12).standard_normal((2, 4, 6)), dtype=F64)
        s2.experts.invocations = 0
        s2.forward(x, k=2)
        assert s2.experts.invocations == 2 * 4 * 2  # B*T*k, one path only
        s2.experts.invocations = 0
        s2.forward(x, k=2, rng=RngStream(1))
        assert s2.experts.invocations == 2 * (2 * 4 * 2)  # both paths in train mode

    def test_branches_route_independently(self):
        differing = 0
        for seed in range(100):
            s2 = S2MoeLayer(8, 16, 4, RngStream(seed), dtype=F64)
            x = Tensor(np.random.default_rng(seed).standard_normal((1, 4, 8)), dtype=F64)
            _, aux = s2.forward(x, k=2, rng=RngStream(seed + 1000))
            clean = {tuple(sorted(r)) for r in aux.decision.indices.reshape(-1, 2).tolist()}
            noisy = {tuple(sorted(r)) for r in aux.decision_noisy.indices.reshape(-1, 2).tolist()}
            if clean != noisy:
                differing += 1
        assert differing > 0

    def test_pooled_pair_shapes(self):
        s2, _ = make_pair_layers(seed=13)
        x = Tensor(np.random.default_rng(14).standard_normal((3, 5, 6)), dtype=F64)
        _, aux = s2.forward(x, k=2, rng=RngStream(2))
        assert aux.pooled_clean.shape == (3, 6)
        assert aux.pooled_noisy.shape == (3, 6)
        np.testing.assert_allclose(aux.pooled_clean.data, x.data.mean(axis=1), rtol=1e-12)


def test_reduction_property_forward_and_gradients():
    """Noise off and gate pinned to 1 reproduces the baseline layer exactly."""
    for seed in range(10):
        s2, base = make_pair_layers(seed=seed, noise_enabled=False)
        s2.blend.w.data[:] = 0.0
        s2.blend.b.data[:] = 500.0  # sigmoid saturates to exactly 1.0 in float64
        x_data = np.random.default_rng(seed).standard_normal((2, 3, 6))

        with Tape():
            x = Tensor(x_data, dtype=F64, requires_grad=True)
            y2, _ = s2.forward(x, k=2, rng=RngStream(0))
            backward(tsum(y2 * y2))
        g2 = {n: (t.grad.copy() if t.grad is not None else None) for n, t in s2.parameters()}
        for _, t in s2.parameters():
            t.zero_grad()

        with Tape():
            xb = Tensor(x_data, dtype=F64, requires_grad=True)
            yb, _ = base.forward(xb, k=2)
            backward(tsum(yb * yb))

        assert np.max(np.abs(y2.data - yb.data)) < 1e-12
        for name, t in base.parameters():
            a, b = g2[name], t.grad
            if a is None and b is None:
                continue
            a = a if a is not None else np.zeros_like(t.data)
            b = b if b is not None else np.zeros_like(t.data)
            assert np.max(np.abs(a - b)) < 1e-10, name


def per_path_forward(layer, x, k, rng):
    """The two-path layer as separate paths: x_hat made apart from x, each
    path routed and combined on its own, then blended by the composition of
    small ops; returns the output, both decisions and the pooled pair."""
    stats = compute_batch_stats(x)
    sigma = np.broadcast_to(stats.sigma, x.shape)
    n1 = rng.normal(x.shape, loc=1.0, scale=sigma).astype(x.dtype)
    n2 = rng.normal(x.shape, loc=np.broadcast_to(stats.mu, x.shape), scale=sigma).astype(x.dtype)
    x_hat = add_mul(Tensor(n2), x, n1)
    dec, dec_n = route(x, layer.router, k), route(x_hat, layer.router, k)
    y_clean, y_noisy = moe_combine(x, dec, layer.experts), moe_combine(x_hat, dec_n, layer.experts)
    g = blend_gate(x, layer.blend)
    y = add(mul(g, y_clean), mul(sub(Tensor(np.asarray(1.0, dtype=g.dtype)), g), y_noisy))
    return y, dec, dec_n, mean(x, axis=1), mean(x_hat, axis=1)


def two_path_loss(y, dec, pooled_clean, pooled_noisy, seed):
    """A loss that reads every differentiable output of the layer."""
    rng = np.random.default_rng(seed)
    c_y, c_clean, c_noisy = (Tensor(rng.standard_normal(t.shape).astype(t.dtype))
                             for t in (y, pooled_clean, pooled_noisy))
    return tsum(mul(y, c_y)) + balance_loss(dec) + tsum(mul(pooled_clean, c_clean)) \
        + tsum(mul(pooled_noisy, c_noisy))


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_stacked_two_path_layer_equals_per_path_composition(dtype):
    """The layer runs x and x_hat as one stacked batch through one route and
    one expert combine. Its output, both decisions and the pooled pair equal
    the per-path composition bit for bit; the f64 gradients of x and of
    every parameter agree within 1e-12 relative (the router and expert
    weight gradients sum both paths' rows in one product)."""
    layer = S2MoeLayer(16, 8, 32, RngStream(3), dtype=dtype)
    x_data = np.random.default_rng(4).standard_normal((4, 24, 16)).astype(dtype)
    results = []
    for stacked in (True, False):
        for _, p in layer.parameters():
            p.zero_grad()
        layer.experts.invocations = 0
        with Tape():
            x = Tensor(x_data.copy(), requires_grad=True)
            if stacked:
                y, aux = layer.forward(x, k=2, rng=RngStream(9))
                dec, dec_n, pc, pn = aux.decision, aux.decision_noisy, aux.pooled_clean, aux.pooled_noisy
                assert aux.moe_input is None
            else:
                y, dec, dec_n, pc, pn = per_path_forward(layer, x, 2, RngStream(9))
            backward(two_path_loss(y, dec, pc, pn, seed=5))
        assert layer.experts.invocations == 2 * 4 * 24 * 2
        arrays = [y.data, pc.data, pn.data] + [a for d in (dec, dec_n)
                                               for a in (d.probs.data, d.indices, d.gates.data)]
        grads = [x.grad] + [p.grad for _, p in layer.parameters()]
        results.append((arrays, grads))
    (arrays, grads), (want_arrays, want_grads) = results
    for got, want in zip(arrays, want_arrays):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    if dtype == F64:
        for got, want in zip(grads, want_grads):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
