"""Routing tests: gate masks, schedules, variant behavior, invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s2moe.routing import (
    dropout_schedule_k,
    make_router,
    route,
    stablemoe_update,
    topk_mask,
)
from s2moe.stochastic import RngStream
from s2moe.tensor import Tape, Tensor, backward, tsum
from s2moe.train import Adam

F64 = np.float64


def smoe_router(n, d, seed=0, dtype=F64, variant="smoe", **kw):
    return make_router(n, d, variant, RngStream(seed), dtype=dtype, **kw)


class TestRoute:
    def test_zero_embeddings_give_uniform_probs(self):
        params = smoe_router(6, 4)
        params.w_e.data[:] = 0.0
        dec = route(Tensor(np.random.default_rng(0).standard_normal((2, 3, 4))), params, k=2)
        np.testing.assert_allclose(dec.probs.data, 1.0 / 6.0, atol=1e-12)

    def test_known_scores_match_direct_softmax(self):
        # oracle: direct math.exp evaluation of softmax([2, 1, 0, -1])
        scores = [2.0, 1.0, 0.0, -1.0]
        exps = [math.exp(s) for s in scores]
        total = sum(exps)
        expected = [e / total for e in exps]

        params = smoe_router(4, 4)
        params.w_e.data[:] = np.eye(4)
        x = Tensor(np.array(scores, dtype=F64).reshape(1, 1, 4))
        dec = route(x, params, k=2)
        assert sorted(dec.indices[0, 0].tolist()) == [0, 1]
        np.testing.assert_allclose(dec.gates.data[0, 0, :2], expected[:2], rtol=1e-12)
        assert dec.gates.data[0, 0, 2] == 0.0 and dec.gates.data[0, 0, 3] == 0.0
        np.testing.assert_allclose(dec.probs.data[0, 0], expected, rtol=1e-12)

    def test_full_selection_keeps_all_probs(self):
        params = smoe_router(5, 3)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 2, 3)))
        dec = route(x, params, k=5)
        np.testing.assert_array_equal(dec.gates.data, dec.probs.data)

    def test_k_out_of_range_rejected(self):
        params = smoe_router(4, 3)
        x = Tensor(np.zeros((1, 1, 3)))
        with pytest.raises(ValueError):
            route(x, params, k=0)
        with pytest.raises(ValueError):
            route(x, params, k=5)

    def test_gradient_reaches_unfrozen_router(self):
        params = smoe_router(4, 3)
        with Tape():
            x = Tensor(np.random.default_rng(2).standard_normal((1, 2, 3)), dtype=F64)
            dec = route(x, params, k=2)
            backward(tsum(dec.gates * Tensor(np.random.default_rng(3).standard_normal((1, 2, 4)))))
        assert params.w_e.grad is not None and np.any(params.w_e.grad != 0)

    def test_frozen_router_gets_no_gradient(self):
        params = smoe_router(4, 3, variant="smoe-dropout", frozen_seed=9)
        assert params.w_e.requires_grad is False
        with Tape():
            x = Tensor(np.random.default_rng(2).standard_normal((1, 2, 3)), dtype=F64, requires_grad=True)
            dec = route(x, params, k=2)
            backward(tsum(dec.gates))
        assert params.w_e.grad is None

    def test_frozen_router_redraw_is_reproducible(self):
        a = smoe_router(4, 3, variant="smoe-dropout", frozen_seed=9)
        b = smoe_router(4, 3, seed=999, variant="smoe-dropout", frozen_seed=9)
        assert a.w_e.data.tobytes() == b.w_e.data.tobytes()


class TestTopkMask:
    def test_direct_selection(self):
        idx, gates = topk_mask(np.array([0.4, 0.3, 0.2, 0.1]), 2)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(gates, [0.4, 0.3, 0.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        idx, _ = topk_mask(np.array([0.25, 0.25, 0.25, 0.25]), 1)
        assert idx.tolist() == [0]

    def test_k_equals_n_is_identity(self):
        row = np.array([0.1, 0.5, 0.4])
        _, gates = topk_mask(row, 3)
        np.testing.assert_array_equal(gates, row)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=6))
    def test_kept_set_maximizes_total_probability(self, row, k):
        row = np.asarray(row)
        k = min(k, row.size)
        idx, gates = topk_mask(row, k)
        kept = gates.sum()
        # brute-force oracle over all k-subsets
        best = max(sum(row[list(c)]) for c in itertools.combinations(range(row.size), k))
        assert kept == pytest.approx(best, abs=1e-12)
        assert len(set(idx.tolist())) == k


class TestSchedules:
    def test_schedule_boundaries(self):
        assert dropout_schedule_k(0, 100, 16) == 1
        assert dropout_schedule_k(100, 100, 16) == 16

    def test_schedule_midpoint(self):
        # oracle: clamp(ceil(16 * 0.5), 1, 16)
        assert dropout_schedule_k(50, 100, 16) == 8

    def test_schedule_monotone(self):
        ks = [dropout_schedule_k(s, 37, 5) for s in range(38)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            dropout_schedule_k(0, 0, 4)

    def test_stablemoe_router_trains_until_boundary_only(self):
        params = smoe_router(4, 3, variant="stablemoe", stage_boundary=4)
        adam = Adam(params.parameters(), lr=0.1)
        rng = np.random.default_rng(4)
        for step in range(8):
            stablemoe_update(params, step)
            assert params.w_e.requires_grad is (step < 4)
            before = params.w_e.data.tobytes()
            with Tape():
                x = Tensor(rng.standard_normal((1, 5, 3)), dtype=F64, requires_grad=True)
                params.w_e.zero_grad()
                backward(tsum(route(x, params, k=2).gates * Tensor(rng.standard_normal((1, 5, 4)))))
            adam.step(step + 1)
            assert (params.w_e.data.tobytes() != before) is (step < 4), step

    def test_stablemoe_update_leaves_other_variants_as_built(self):
        for variant, trains in (("smoe", True), ("smoe-dropout", False), ("xmoe", True)):
            params = smoe_router(4, 6, variant=variant, d_low=2, frozen_seed=1, stage_boundary=2)
            for step in range(4):
                stablemoe_update(params, step)
                assert params.w_e.requires_grad is trains, variant


class TestXmoe:
    def test_bad_temperature_rejected(self):
        params = smoe_router(4, 6, variant="xmoe", d_low=2)
        params.tau_r.data = np.asarray(-0.1, dtype=F64)
        with pytest.raises(ValueError):
            route(Tensor(np.zeros((1, 1, 6))), params, k=1)

    def test_scores_are_scaled_cosines(self):
        # oracle: cosine similarity computed with plain numpy
        rng = np.random.default_rng(5)
        params = smoe_router(4, 6, variant="xmoe", d_low=3)
        x = rng.standard_normal((1, 2, 6))
        dec = route(Tensor(x, dtype=F64), params, k=4)
        low = x @ params.w_down.data.T
        low /= np.sqrt((low ** 2).sum(-1, keepdims=True) + 1e-12)
        emb = params.emb_low.data / np.sqrt((params.emb_low.data ** 2).sum(-1, keepdims=True) + 1e-12)
        kappa = (low @ emb.T) / float(params.tau_r.data)
        expect = np.exp(kappa - kappa.max(-1, keepdims=True))
        expect /= expect.sum(-1, keepdims=True)
        np.testing.assert_allclose(dec.probs.data, expect, rtol=1e-10)

    def test_requires_low_dim(self):
        with pytest.raises(ValueError):
            smoe_router(4, 6, variant="xmoe", d_low=6)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_adam_steps_the_0d_temperature_as_its_expression_does(self, dtype):
        """Adam's scratch buffers take the 0-d ``tau_r`` and its gradient (a
        numpy scalar, from ``div``'s full reduction): every parameter and
        moment equals the update expression's, bit for bit, over four steps."""
        params = smoe_router(4, 6, variant="xmoe", d_low=3, dtype=dtype)
        named, tau = params.parameters(), params.tau_r.data.copy()
        adam = Adam(named, lr=0.05)
        ref = [[t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)] for _, t in named]
        rng = np.random.default_rng(6)
        for step in range(1, 5):
            with Tape():
                for _, t in named:
                    t.zero_grad()
                x = Tensor(rng.standard_normal((1, 5, 6)), dtype=dtype)
                backward(tsum(route(x, params, k=2).gates * Tensor(rng.standard_normal((1, 5, 4)), dtype=dtype)))
            assert np.ndim(params.tau_r.grad) == 0
            adam.step(step)
            c1, c2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
            for (name, t), state, m, v in zip(named, ref, adam.m, adam.v):
                p, m_ref, v_ref = state
                g = t.grad
                if g is None:
                    continue
                m_ref = m_ref * 0.9 + (1.0 - 0.9) * g
                v_ref = v_ref * 0.999 + (1.0 - 0.999) * (g * g)
                state[:] = p - 0.05 * (m_ref / c1) / (np.sqrt(v_ref / c2) + 1e-8), m_ref, v_ref
                for got, want in zip((t.data, m.data, v.data), state):
                    assert np.asarray(got).dtype == dtype and np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        assert params.tau_r.data != tau and np.isfinite(params.tau_r.data)


def test_routing_invariants_bulk():
    """Probs sum to one, exactly k gates, kept gates equal probs, shift invariance."""
    rng = np.random.default_rng(12)
    for variant in ("smoe", "smoe-dropout", "xmoe", "stablemoe"):
        params = smoe_router(8, 16, seed=3, variant=variant,
                             d_low=4 if variant == "xmoe" else 8,
                             frozen_seed=1, stage_boundary=10)
        x = Tensor(rng.standard_normal((10, 250, 16)), dtype=F64)  # 2500 tokens per variant
        k = 3
        dec = route(x, params, k)
        sums = dec.probs.data.sum(-1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)
        nonzero = (dec.gates.data != 0).sum(-1)
        assert np.all(nonzero == k)
        kept = np.take_along_axis(dec.gates.data, dec.indices, axis=-1)
        kept_probs = np.take_along_axis(dec.probs.data, dec.indices, axis=-1)
        np.testing.assert_array_equal(kept, kept_probs)
        assert np.all(dec.gates.data >= 0) and np.all(dec.gates.data <= 1)
        # distinct indices per row
        assert all(len(set(r)) == k for r in dec.indices.reshape(-1, k).tolist())


def test_score_shift_invariance():
    """Adding a constant to a token's scores leaves probs/indices/gates unchanged."""
    from s2moe.tensor import softmax

    rng = np.random.default_rng(4)
    scores = rng.standard_normal((100, 8))
    p1 = softmax(Tensor(scores, dtype=F64)).data
    p2 = softmax(Tensor(scores + 3.7, dtype=F64)).data
    assert np.max(np.abs(p1 - p2)) < 1e-12
    for row1, row2 in zip(p1, p2):
        i1, g1 = topk_mask(row1, 3)
        i2, g2 = topk_mask(row2, 3)
        np.testing.assert_array_equal(i1, i2)
        assert np.max(np.abs(g1 - g2)) < 1e-12
