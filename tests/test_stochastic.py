"""Noise modeling, blend gate, and two-path layer tests."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from s2moe import stochastic
from s2moe.experts import moe_combine
from s2moe.losses import balance_loss
from s2moe.model import _dropout_mask
from s2moe.moe import S2MoeLayer, SmoeLayer
from s2moe.routing import route
from s2moe.stochastic import (
    NoiseStats,
    RngStream,
    blend_gate,
    compute_batch_stats,
    keep_threshold,
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
        z1, _ = RngStream(11, counter=2).normal_pair(x.shape)
        n1 = z1.astype(F64) * stats.sigma + 1
        assert x.grad.tobytes() == (1.0 + n1).tobytes()


class TestTrainingDraws:
    """A training step's noise pair and dropout masks: fixed transforms of one
    draw's raw Philox words."""

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.5])
    def test_keep_rate_is_binomial(self, p):
        n = 1 << 20
        kept = np.count_nonzero(RngStream(3, counter=7).keep_mask((n,), keep_threshold(1 - p)))
        assert abs(kept - n * (1 - p)) <= 5 * np.sqrt(n * p * (1 - p))

    @pytest.mark.parametrize("p", [0.0001, 0.05, 0.1, 0.3, 0.5, 0.9, 1 - 2 ** -17])
    def test_scale_inverts_the_keep_rate(self, p):
        """A position is kept with probability t / 2**16 and scaled by
        2**16 / t, each dtype's correctly rounded quotient; t rounds
        ``(1 - p) * 2**16`` half up, so the highest rate keeps one lane."""
        t = keep_threshold(1 - p)
        assert abs(t - (1 - p) * 2 ** 16) <= 0.5 and t >= 1
        for dtype in (np.float32, F64):
            _, scale = _dropout_mask(Tensor(np.zeros((2, 3), dtype)), p, RngStream(0))
            exact = Fraction(2 ** 16, t)
            assert scale.dtype == dtype
            assert abs(Fraction(float(scale)) - exact) <= Fraction(float(np.spacing(scale))) / 2
            assert abs(Fraction(float(scale)) * t - 2 ** 16) <= Fraction(float(np.spacing(scale))) * t / 2

    def test_thresholds_round_half_up(self):
        assert keep_threshold(1.0) == 2 ** 16 and keep_threshold(0.0) == 0
        assert keep_threshold(2 ** -17) == 1 and keep_threshold(2 ** -17 - 2 ** -40) == 0
        assert keep_threshold(0.9) == 58982 and keep_threshold(0.5) == 2 ** 15

    def test_same_counter_same_bits_next_counter_new_bits(self):
        shape = (3, 5, 7)
        for draw in (lambda s: s.normal_pair(shape), lambda s: (s.keep_mask(shape, 2 ** 15),)):
            stream = RngStream(42, counter=9)
            first = draw(stream)
            assert stream.counter == 10
            again, after = draw(RngStream(42, counter=9)), draw(stream)
            for a, b, c in zip(first, again, after):
                assert a.shape == shape and a.tobytes() == b.tobytes() and a.tobytes() != c.tobytes()

    def test_draws_match_their_pinned_bytes(self):
        """The pair and a mask at one (seed, counter), pinned byte for byte
        (recorded with numpy 2.4's X86_V4 float32 log, cos and sin). A host
        whose kernels round one noise value apart trains another trajectory
        and fails here instead."""
        z1, z2 = RngStream(2024, counter=5).normal_pair((37,))
        assert list(z1[:8].astype("<f4").view("<u4")) == [1066709321, 1058073165, 3201794268, 3181279007,
                                                          3215870739, 3214759839, 3191364741, 1014163442]
        assert list(z2[:8].astype("<f4").view("<u4")) == [1062530901, 1057994172, 1069361690, 1053010497,
                                                          1059796875, 1068055108, 3213565229, 1072673950]

        def digest(*arrays):
            return hashlib.sha256(b"".join(a.astype(a.dtype.newbyteorder("<")).tobytes()
                                           for a in arrays)).hexdigest()

        assert digest(z1, z2) == "38e318c30b8c8b863afa7ac9f9dcb9c535d44dee4f86a8f709700ce2d95660d9"
        assert digest(*RngStream(2024, counter=5).normal_pair((8, 128, 128))) == \
            "293d9f0c3a0b4591e32735905dc02769f0d98f12dcbc24e2314c13366a93af24"
        mask = RngStream(2024, counter=6).keep_mask((8, 128, 128), 58982)
        assert digest(np.packbits(mask)) == "bbc1ef55db122e6c222da77867fc185b50f357c981eab14e3cff045a980663d1"

    def test_lanes_read_each_word_from_its_lowest_bits_up(self):
        """The 16-bit and 32-bit lanes are the word's bits from the lowest up,
        as a little-endian host reads them, whatever the host's byte order."""
        n = 4 * 9 + 3
        words = np.random.Philox(key=6).random_raw(n).astype(object)  # Python ints: value arithmetic only
        lanes16 = np.array([(w >> (16 * i)) & 0xFFFF for w in words for i in range(4)], dtype=np.int64)
        for t in (1, 2 ** 15, 40_000, 2 ** 16):
            mask = RngStream(6).keep_mask((n,), t)
            assert np.array_equal(mask, lanes16[:n] < t)
        lanes32 = np.array([(w >> (32 * i)) & 0xFFFFFFFF for w in words for i in range(2)], dtype=np.float64)
        u = (np.floor(lanes32 / 256) + 1) / 2 ** 24
        r, theta = np.sqrt(-2 * np.log(u[:n])), 2 * np.pi * u[n:]
        z1, z2 = RngStream(6).normal_pair((n,))
        np.testing.assert_allclose(z1, r * np.cos(theta), rtol=0, atol=1e-5)
        np.testing.assert_allclose(z2, r * np.sin(theta), rtol=0, atol=1e-5)

    def test_noise_pair_is_two_independent_standard_normals(self):
        """Per element over 4,000 draws and over one draw of 2**18 elements:
        means, standard deviations and the pair's correlation within five
        Monte Carlo standard errors."""
        draws = 4000
        stream = RngStream(8)
        pairs = np.array([np.stack(stream.normal_pair((4, 6)), axis=0) for _ in range(draws)], dtype=F64)
        z = np.stack([pairs[:, 0].reshape(draws, -1), pairs[:, 1].reshape(draws, -1)])  # (2, draws, 24)
        bound = 5 / np.sqrt(draws)
        assert np.all(np.abs(z.mean(axis=1)) <= bound)
        assert np.all(np.abs(z.std(axis=1) - 1) <= bound / np.sqrt(2))
        big = 1 << 18
        z1, z2 = (a.astype(F64) for a in RngStream(9).normal_pair((big,)))
        bound = 5 / np.sqrt(big)
        assert abs(z1.mean()) <= bound and abs(z2.mean()) <= bound
        assert abs(z1.std() - 1) <= bound / np.sqrt(2) and abs(z2.std() - 1) <= bound / np.sqrt(2)
        assert abs(np.corrcoef(z1, z2)[0, 1]) <= bound
        assert max(np.abs(z1).max(), np.abs(z2).max()) <= np.sqrt(48 * np.log(2)) * (1 + 1e-6)

    @staticmethod
    def _noise(monkeypatch, x, stats, counter=4):
        """(n1, n2) as ``perturb`` hands them to ``stack_affine``."""
        seen = []
        monkeypatch.setattr(stochastic, "stack_affine", lambda a, c, s: seen.append((c, s)))
        perturb(x, stats, RngStream(13, counter=counter))
        return seen[0]

    def test_noise_is_formed_in_the_layer_dtype_from_one_float32_pair(self, monkeypatch):
        """n1 = 1 + sigma * z1 and n2 = mu + sigma * z2 in the layer's dtype;
        a float64 layer takes the float32 pair exactly upcast, so at unit
        sigma and zero mean both precisions get the same noise values."""
        rng = np.random.default_rng(6)
        x64 = rng.standard_normal((2, 3, 4))
        for dtype in (np.float32, F64):
            x = Tensor(x64.astype(dtype))
            stats = compute_batch_stats(x)
            n1, n2 = self._noise(monkeypatch, x, stats)
            z1, z2 = (z.astype(dtype) for z in RngStream(13, counter=4).normal_pair(x.shape))
            assert n1.dtype == n2.dtype == dtype
            assert n1.tobytes() == (z1 * stats.sigma + 1).tobytes()
            assert n2.tobytes() == (z2 * stats.sigma + stats.mu).tobytes()
        unit = {dtype: self._noise(monkeypatch, Tensor(x64.astype(dtype)),
                                   NoiseStats(mu=np.zeros(4, dtype), sigma=np.ones(4, dtype)))
                for dtype in (np.float32, F64)}
        z2 = RngStream(13, counter=4).normal_pair(x64.shape)[1]
        assert unit[np.float32][1].tobytes() == z2.tobytes()
        assert unit[F64][1].tobytes() == z2.astype(F64).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_zero_sigma_gives_unit_scale_and_the_mean_shift(self, dtype, monkeypatch):
        mu = np.array([0.0, -1.5, 2.25, 1e-3], dtype)
        x = Tensor(np.random.default_rng(7).standard_normal((2, 3, 4)).astype(dtype))
        n1, n2 = self._noise(monkeypatch, x, NoiseStats(mu=mu, sigma=np.zeros(4, dtype)))
        assert np.all(n1 == 1) and n2.tobytes() == np.broadcast_to(mu, x.shape).tobytes()


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
    z1, z2 = (z.astype(x.dtype) for z in rng.normal_pair(x.shape))
    n1, n2 = z1 * stats.sigma + 1, z2 * stats.sigma + stats.mu
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
