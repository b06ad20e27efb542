"""Loss-term tests: closed forms, enumeration oracles, and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s2moe.losses import PooledPair, balance_loss, task_loss, total_loss, uncertainty_loss
from s2moe.routing import RouterDecision
from s2moe.tensor import Tensor, grad_check

F64 = np.float64


def decision_from_probs(probs, k):
    probs = np.asarray(probs, dtype=F64)
    indices = np.argsort(-probs, axis=-1, kind="stable")[..., :k]
    gates = np.zeros_like(probs)
    np.put_along_axis(gates, indices, np.take_along_axis(probs, indices, -1), -1)
    return RouterDecision(probs=Tensor(probs), indices=indices, gates=Tensor(gates), k_used=k)


def random_decision(rng, b, t, n, k):
    scores = rng.standard_normal((b, t, n))
    e = np.exp(scores - scores.max(-1, keepdims=True))
    return decision_from_probs(e / e.sum(-1, keepdims=True), k)


class TestTaskLoss:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 3, 256), dtype=F64))
        nats, bpc, ppl = task_loss(logits, np.zeros((2, 3), dtype=int))
        assert nats.item() == pytest.approx(math.log(256), abs=1e-12)
        assert bpc == pytest.approx(8.0, abs=1e-12)
        assert ppl == pytest.approx(256.0, rel=1e-12)

    def test_confident_correct_model(self):
        logits = np.zeros((1, 4, 5), dtype=F64)
        targets = np.array([[0, 1, 2, 3]])
        for t in range(4):
            logits[0, t, targets[0, t]] = 30.0
        nats, _, _ = task_loss(Tensor(logits), targets)
        assert nats.item() < 1e-9

    def test_matches_per_token_log_softmax_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        nats, bpc, ppl = task_loss(Tensor(logits, dtype=F64), targets)
        # oracle: enumerate tokens, direct log-softmax
        acc = 0.0
        for b in range(2):
            for t in range(3):
                row = logits[b, t]
                p = math.exp(row[targets[b, t]]) / sum(math.exp(v) for v in row)
                acc += -math.log(p)
        acc /= 6.0
        assert nats.item() == pytest.approx(acc, rel=1e-12)
        assert bpc == pytest.approx(acc / math.log(2), rel=1e-12)
        assert ppl == pytest.approx(math.exp(acc), rel=1e-12)

    def test_perplexity_past_float_range_is_inf(self):
        # the wrong class scores 800 above the target: 800 nats per token
        logits = np.zeros((1, 2, 3), dtype=F64)
        logits[..., 1] = 800.0
        nats, bpc, ppl = task_loss(Tensor(logits), np.zeros((1, 2), dtype=int))
        assert nats.item() == pytest.approx(800.0, rel=1e-12)
        assert bpc == pytest.approx(800.0 / math.log(2), rel=1e-12)
        assert ppl == math.inf

    def test_target_out_of_range_rejected(self):
        from s2moe.tensor import ShapeError
        with pytest.raises(ShapeError):
            task_loss(Tensor(np.zeros((1, 2, 4))), np.array([[0, 4]]))


class TestBalanceLoss:
    def test_uniform_is_one(self):
        probs = np.full((2, 4, 4), 0.25)
        out = balance_loss(decision_from_probs(probs, 2))
        assert out.item() == pytest.approx(1.0, abs=1e-12)

    def test_full_collapse_is_n(self):
        n = 16
        probs = np.full((1, 8, n), 1e-9)
        probs[..., 1] = 1.0 - 1e-9 * (n - 1)
        out = balance_loss(decision_from_probs(probs, 2))
        assert out.item() == pytest.approx(n, abs=1e-3)

    def test_matches_two_pass_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        dec = random_decision(rng, 2, 4, 4, 2)  # M = 8 tokens, N = 4
        out = balance_loss(dec)
        probs = dec.probs.data.reshape(-1, 4)
        f = [0.0] * 4
        for row in probs:
            f[int(np.argmax(row))] += 1.0 / probs.shape[0]
        p_bar = [sum(row[i] for row in probs) / probs.shape[0] for i in range(4)]
        expect = 4 * sum(f[i] * p_bar[i] for i in range(4))
        assert out.item() == pytest.approx(expect, rel=1e-12)

    def test_empty_decision_rejected(self):
        dec = decision_from_probs(np.zeros((0, 0, 4)), 1)
        with pytest.raises(ValueError):
            balance_loss(dec)

    def test_at_least_one_under_perturbations_from_uniform(self):
        # Perturb the shared routing distribution: every token keeps the same
        # probs row p, so the loss is N * max(p) >= 1 with equality at uniform.
        # (For tokens with *independent* random rows the bound does not hold;
        # see the enumeration oracle above for the general formula.)
        rng = np.random.default_rng(2)
        for scale in (1e-6, 1e-3, 0.1, 1.0):
            for _ in range(50):
                p = np.full(4, 0.25) + scale * rng.standard_normal(4)
                p = np.abs(p) / np.abs(p).sum()
                probs = np.tile(p, (1, int(rng.integers(2, 20)), 1))
                val = balance_loss(decision_from_probs(probs, 2)).item()
                assert val >= 1.0 - 1e-9
                assert val == pytest.approx(4 * p.max(), rel=1e-9)


class TestUncertaintyLoss:
    def test_single_sample_is_exactly_zero(self):
        pair = PooledPair(x_pool=Tensor(np.array([[1.0, 2.0]])),
                          xhat_pool=Tensor(np.array([[2.0, 1.0]])), tau=1.0)
        assert uncertainty_loss(pair).item() == 0.0

    def test_diagonal_kernel_closed_form(self):
        # kappa = 10*I via orthonormal rows and tau = 0.1
        x = np.eye(2, dtype=F64)
        pair = PooledPair(x_pool=Tensor(x), xhat_pool=Tensor(x.copy()), tau=0.1)
        out = uncertainty_loss(pair)
        assert out.item() == pytest.approx(math.log(1.0 + math.exp(-10.0)), abs=1e-9)

    def test_orthogonal_batch_closed_form(self):
        # kappa_ii = 1, kappa_ij = 0 -> each row contributes -log(e / (e + 3))
        x = np.eye(4, dtype=F64)
        pair = PooledPair(x_pool=Tensor(x), xhat_pool=Tensor(x.copy()), tau=1.0)
        expect = -math.log(math.e / (math.e + 3.0))
        assert uncertainty_loss(pair).item() == pytest.approx(expect, rel=1e-12)

    def test_zero_norm_row_rejected(self):
        pair = PooledPair(x_pool=Tensor(np.zeros((2, 3))),
                          xhat_pool=Tensor(np.ones((2, 3))), tau=1.0)
        with pytest.raises(ValueError):
            uncertainty_loss(pair)

    def test_nonnegative_and_monotone_in_diagonal_margin(self):
        rng = np.random.default_rng(3)
        off = rng.standard_normal((3, 3)) * 0.1
        losses = []
        for margin in (0.0, 0.5, 1.0, 2.0, 4.0):
            kappa = off + margin * np.eye(3)
            # feed the kernel through the same definition via explicit pools:
            # use rows of an identity scaled so cosine reproduces kappa is hard;
            # instead check the formula directly on kappa.
            lse = np.log(np.exp(kappa).sum(axis=1))
            loss = float(np.mean(lse - np.diag(kappa)))
            losses.append(loss)
            assert loss >= 0.0
        assert all(a > b for a, b in zip(losses, losses[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_permutation_invariance(self, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, 5))
        xh = x + 0.1 * rng.standard_normal((b, 5))
        perm = rng.permutation(b)
        a = uncertainty_loss(PooledPair(Tensor(x, dtype=F64), Tensor(xh, dtype=F64), tau=0.7))
        c = uncertainty_loss(PooledPair(Tensor(x[perm], dtype=F64), Tensor(xh[perm], dtype=F64), tau=0.7))
        assert abs(a.item() - c.item()) < 1e-12


class TestTotalLoss:
    def test_zero_coefficients(self):
        task = Tensor(np.asarray(2.5, dtype=F64), requires_grad=True)
        out = total_loss(task, Tensor(np.asarray(9.0)), Tensor(np.asarray(9.0)), 0.0, 0.0)
        assert out.item() == 2.5

    def test_default_coefficients(self):
        task = Tensor(np.asarray(2.0, dtype=F64))
        out = total_loss(task, Tensor(np.asarray(1.0, dtype=F64)),
                         Tensor(np.asarray(0.5, dtype=F64)), 0.01, 0.1)
        assert out.item() == pytest.approx(2.06, abs=1e-12)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            total_loss(Tensor(np.asarray(1.0)), None, None, -0.1, 0.0)


class TestLossGradients:
    def test_task_loss_grad(self):
        rng = np.random.default_rng(4)
        targets = rng.integers(0, 5, size=(2, 3))
        point = Tensor(rng.standard_normal((2, 3, 5)), dtype=F64)
        err = grad_check(lambda x: task_loss(x, targets)[0], point)
        assert err < 1e-4

    def test_balance_loss_grad(self):
        rng = np.random.default_rng(5)
        probs0 = np.exp(rng.standard_normal((1, 6, 4)))
        probs0 /= probs0.sum(-1, keepdims=True)
        indices = np.argsort(-probs0, axis=-1, kind="stable")[..., :2]

        def f(x):
            # treat x as raw scores; f recomputes probs differentiably
            from s2moe.tensor import softmax
            probs = softmax(x, axis=-1)
            gates_mask = np.zeros(probs.shape)
            np.put_along_axis(gates_mask, indices, 1.0, -1)
            dec = RouterDecision(probs=probs, indices=indices,
                                 gates=probs * Tensor(gates_mask), k_used=2)
            return balance_loss(dec)

        point = Tensor(rng.standard_normal((1, 6, 4)), dtype=F64)
        assert grad_check(f, point) < 1e-4

    def test_uncertainty_loss_grad(self):
        rng = np.random.default_rng(6)
        xh = Tensor(rng.standard_normal((4, 5)), dtype=F64)

        def f(x):
            return uncertainty_loss(PooledPair(x, xh, tau=0.7))

        point = Tensor(rng.standard_normal((4, 5)), dtype=F64)
        assert grad_check(f, point) < 1e-4
