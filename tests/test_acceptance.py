"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale training
criterion (7) trains two small models for 2000 steps each and dominates the
runtime; everything else finishes in seconds.
"""

import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from s2moe.checkpoint import load_checkpoint, save_checkpoint
from s2moe.config import preset
from s2moe.diagnostics import flops_per_token, jacobian_probe
from s2moe.losses import PooledPair, balance_loss, task_loss, uncertainty_loss
from s2moe.model import LanguageModel, ModelConfig
from s2moe.moe import S2MoeLayer, SmoeLayer
from s2moe.routing import make_router, route, topk_mask
from s2moe.stochastic import RngStream, compute_batch_stats
from s2moe.tensor import Tape, Tensor, backward, grad_check, softmax, tsum
from s2moe.train import (
    _step_losses,
    build_model,
    evaluate_model,
    metrics_equal,
    parse_metrics,
    train,
)

from conftest import tiny_run_config

F64 = np.float64


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _paired_layers(seed, d, n, h, dtype=F64):
    s2 = S2MoeLayer(d, n, h, RngStream(seed), dtype=dtype, noise_enabled=False)
    base = SmoeLayer(d, n, h, RngStream(seed + 10_000), dtype=dtype)
    base.router.w_e.data[:] = s2.router.w_e.data
    for i in range(n):
        base.experts.w1[i].data[:] = s2.experts.w1[i].data
        base.experts.b1[i].data[:] = s2.experts.b1[i].data
        base.experts.w2[i].data[:] = s2.experts.w2[i].data
        base.experts.b2[i].data[:] = s2.experts.b2[i].data
    return s2, base


def test_criterion_1_reduction_equivalence():
    """Noise off + gate saturated to 1 reproduces vanilla SMoE exactly."""
    worst_fwd = 0.0
    worst_grad = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 33))
        n = int(rng.integers(2, 9))
        h = int(rng.integers(3, 17))
        k = int(rng.integers(1, n + 1))
        s2, base = _paired_layers(seed, d, n, h)
        s2.blend.w.data[:] = 0.0
        s2.blend.b.data[:] = 500.0
        x_data = rng.standard_normal((2, 3, d))

        with Tape():
            x = Tensor(x_data, dtype=F64, requires_grad=True)
            y2, _ = s2.forward(x, k=k, rng=RngStream(0))
            backward(tsum(y2 * y2))
        grads_s2 = {name: (t.grad if t.grad is not None else 0.0) for name, t in s2.parameters()}

        with Tape():
            xb = Tensor(x_data, dtype=F64, requires_grad=True)
            yb, _ = base.forward(xb, k=k)
            backward(tsum(yb * yb))

        worst_fwd = max(worst_fwd, float(np.max(np.abs(y2.data - yb.data))))
        for name, t in base.parameters():
            gb = t.grad if t.grad is not None else 0.0
            worst_grad = max(worst_grad, float(np.max(np.abs(np.asarray(grads_s2[name]) - np.asarray(gb)))))
    _verdict(1, worst_fwd < 1e-12 and worst_grad < 1e-10,
             f"50 configs, max fwd diff {worst_fwd:.2e} (<1e-12), max grad diff {worst_grad:.2e} (<1e-10)")


def test_criterion_2_gradient_integrity():
    """Every loss term and a 1-layer model pass finite-difference checks."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # loss terms
        targets = rng.integers(0, 5, size=(2, 3))
        worst = max(worst, grad_check(lambda x: task_loss(x, targets)[0],
                                      Tensor(rng.standard_normal((2, 3, 5)), dtype=F64)))

        probs0 = np.exp(rng.standard_normal((1, 6, 4)))
        probs0 /= probs0.sum(-1, keepdims=True)
        indices = np.argsort(-probs0, axis=-1, kind="stable")[..., :2]

        def bal(x):
            from s2moe.routing import RouterDecision
            probs = softmax(x, axis=-1)
            mask = np.zeros(probs.shape)
            np.put_along_axis(mask, indices, 1.0, -1)
            dec = RouterDecision(probs=probs, indices=indices,
                                 gates=probs * Tensor(mask), k_used=2)
            return balance_loss(dec)

        worst = max(worst, grad_check(bal, Tensor(rng.standard_normal((1, 6, 4)), dtype=F64)))

        xh = Tensor(rng.standard_normal((4, 6)), dtype=F64)
        worst = max(worst, grad_check(lambda x: uncertainty_loss(PooledPair(x, xh, tau=0.7)),
                                      Tensor(rng.standard_normal((4, 6)), dtype=F64)))

        # 1-layer end-to-end model, deterministic noise path, total objective
        cfg = tiny_run_config("unused", "unused", n_layers=1, d_model=8, n_heads=2,
                              d_exp=4, n_experts=2, k_train=1, seq_len=4, dropout=0.0,
                              variant="s2moe", precision="f64", seed=seed)
        model = LanguageModel(dataclasses.replace(cfg, vocab_size=5).model_config())
        for blk in model.blocks:
            blk.moe.noise_enabled = False
        tokens = rng.integers(0, 5, size=(2, 4))
        tgt = rng.integers(0, 5, size=(2, 4))
        slabs = [model.blocks[0].attn.wq, model.blocks[0].moe.router.w_e,
                 model.blocks[0].moe.experts.w1[0], model.blocks[0].moe.blend.w]
        param = slabs[seed % len(slabs)]
        worst = max(worst, _fd_model_param(model, cfg, param, tokens, tgt))
    _verdict(2, worst < 1e-3, f"20 seeds, max rel err {worst:.2e} (<1e-3)")


def _fd_model_param(model, cfg, param, tokens, targets, epsilon=1e-5):
    def loss_value():
        _, _, _, _, _, total = _step_losses(model, cfg, tokens, targets,
                                            RngStream(0), cfg.k_train)
        return total

    with Tape():
        total = loss_value()
        model.zero_grad()
        backward(total)
    analytic = param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
    model.zero_grad()

    flat = param.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        vals = []
        for sign in (+1.0, -1.0):
            flat[i] = orig + sign * epsilon
            vals.append(loss_value().item())
        flat[i] = orig
        numeric[i] = (vals[0] - vals[1]) / (2 * epsilon)
    numeric = numeric.reshape(param.data.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_3_routing_invariants():
    """Probability simplex, gate sparsity, and shift invariance at scale."""
    total_tokens = 0
    for variant in ("smoe", "smoe-dropout", "xmoe", "stablemoe"):
        params = make_router(8, 16, variant, RngStream(1), dtype=F64, d_low=4,
                             frozen_seed=2, stage_boundary=5)
        x = Tensor(np.random.default_rng(3).standard_normal((10, 250, 16)), dtype=F64)
        dec = route(x, params, 3)
        total_tokens += 2500
        assert np.all(np.abs(dec.probs.data.sum(-1) - 1.0) < 1e-6)
        assert np.all(((dec.gates.data != 0).sum(-1)) == 3)
        kept = np.take_along_axis(dec.gates.data, dec.indices, axis=-1)
        kept_probs = np.take_along_axis(dec.probs.data, dec.indices, axis=-1)
        assert np.array_equal(kept, kept_probs)

    scores = np.random.default_rng(4).standard_normal((1000, 8))
    p1 = softmax(Tensor(scores, dtype=F64)).data
    p2 = softmax(Tensor(scores + 5.25, dtype=F64)).data
    shift = float(np.max(np.abs(p1 - p2)))
    assert shift < 1e-12
    for row1, row2 in zip(p1[:100], p2[:100]):
        i1, g1 = topk_mask(row1, 3)
        i2, g2 = topk_mask(row2, 3)
        assert np.array_equal(i1, i2) and np.max(np.abs(g1 - g2)) < 1e-12
    _verdict(3, True, f"{total_tokens} tokens across 4 variants; shift invariance {shift:.1e} (<1e-12)")


def test_criterion_4_loss_identities():
    single = uncertainty_loss(PooledPair(Tensor(np.array([[1.0, 2.0]])),
                                         Tensor(np.array([[2.0, 1.0]])), tau=1.0)).item()

    eye = np.eye(2, dtype=F64)
    diag10 = uncertainty_loss(PooledPair(Tensor(eye), Tensor(eye.copy()), tau=0.1)).item()
    expect = math.log(1.0 + math.exp(-10.0))

    from test_losses import decision_from_probs
    uniform = balance_loss(decision_from_probs(np.full((2, 8, 4), 0.25), 2)).item()
    n = 16
    collapse_probs = np.full((1, 64, n), 1e-9)
    collapse_probs[..., 1] = 1.0 - 1e-9 * (n - 1)
    collapsed = balance_loss(decision_from_probs(collapse_probs, 2)).item()

    ok = (single == 0.0 and abs(diag10 - expect) < 1e-9
          and abs(uniform - 1.0) < 1e-6 and abs(collapsed - n) < 1e-3)
    _verdict(4, ok, f"L_u(B=1)={single}, L_u(10I)={diag10:.3e} (target {expect:.3e}), "
                    f"balance uniform={uniform}, collapsed={collapsed}")


def test_criterion_5_jacobian_rank_structure():
    d, n = 32, 4
    smoe = SmoeLayer(d, n, 16, RngStream(21), dtype=F64)
    s2 = S2MoeLayer(d, n, 16, RngStream(22), dtype=F64)
    ctx = compute_batch_stats(Tensor(np.random.default_rng(23).standard_normal((4, 16, d))))

    def collect(layer, bound, stochastic):
        reports = []
        seed = 0
        while len(reports) < 10 and seed < 500:
            v = np.random.default_rng(1000 + seed).standard_normal(d)
            try:
                rep = jacobian_probe(layer, v, k=n, stats=ctx if stochastic else None,
                                     noise_rng=RngStream(seed) if stochastic else None)
            except ValueError:
                seed += 1
                continue
            if rep.kink_gap > 1e-3:
                reports.append(rep)
            seed += 1
        assert len(reports) == 10, "could not find 10 clean probe points"
        ranks = [r.rank for r in reports]
        errs = [r.autodiff_fd_max_rel_err for r in reports]
        assert all(r <= bound for r in ranks), ranks
        assert all(e < 1e-3 for e in errs), errs
        return max(ranks), max(errs)

    r_smoe, e_smoe = collect(smoe, n, stochastic=False)
    r_s2, e_s2 = collect(s2, 2 * n, stochastic=True)
    _verdict(5, True, f"10 probes each: SMoE max rank {r_smoe} (<= {n}), "
                      f"S2MoE max rank {r_s2} (<= {2 * n}); max autodiff-FD err {max(e_smoe, e_s2):.1e}")


def test_criterion_6_flops_claim():
    base = ModelConfig(variant="smoe")
    s2 = ModelConfig(variant="s2moe")
    r2 = flops_per_token(base, k=2)
    r1 = flops_per_token(base, k=1)
    reduction = (r2.total - r1.total) / r2.total
    parity = all(flops_per_token(s2, k=k).items == flops_per_token(base, k=k).items
                 for k in range(1, 17))
    ok = 0.24 <= reduction <= 0.33 and parity
    _verdict(6, ok, f"k=2 to k=1 reduction {100 * reduction:.2f}% (in [24%, 33%]); "
                    f"eval-mode parity at every k: {parity}")


@pytest.mark.slow
def test_criterion_7_desk_scale_training(desk_corpus, tmp_path):
    results = {}
    for variant in ("s2moe", "smoe"):
        cfg = preset("desk")
        cfg.variant = variant
        cfg.seed = 7
        cfg.corpus = desk_corpus
        cfg.out_dir = str(tmp_path / variant)
        result = train(cfg)
        corpus = result.corpus
        model = build_model(cfg, corpus)
        from s2moe.checkpoint import apply_tensors
        apply_tensors(model.parameters(), load_checkpoint(result.final_checkpoint))
        ev = evaluate_model(model, corpus, cfg, k=2, split="val")
        results[variant] = dict(rows=result.rows, val_bpc=ev.bpc,
                                cosine=ev.collapse.mean_pairwise_cosine)

    rows = results["s2moe"]["rows"]
    initial_bpc, final_bpc = rows[0].bpc, rows[-1].bpc
    hard_ok = final_bpc <= 0.8 * initial_bpc

    soft_b = results["s2moe"]["val_bpc"] <= results["smoe"]["val_bpc"] + 0.02
    soft_c = results["s2moe"]["cosine"] <= results["smoe"]["cosine"]
    for name, ok, detail in (
        ("7b", soft_b, f"s2moe val bpc {results['s2moe']['val_bpc']:.4f} vs "
                       f"smoe {results['smoe']['val_bpc']:.4f} + 0.02"),
        ("7c", soft_c, f"s2moe expert cosine {results['s2moe']['cosine']:.4f} vs "
                       f"smoe {results['smoe']['cosine']:.4f}"),
    ):
        if ok:
            print(f"ACCEPTANCE {name} PASS (soft) - {detail}")
        else:
            print(f"ACCEPTANCE {name} SOFT-FAIL (note, not a red build) - {detail}")
            warnings.warn(f"soft criterion {name} failed: {detail}")

    _verdict(7, hard_ok, f"desk s2moe BPC {initial_bpc:.3f} -> {final_bpc:.3f} "
                         f"(<= 0.8x initial = {0.8 * initial_bpc:.3f})")


def test_criterion_8_determinism_and_persistence(small_corpus, tmp_path):
    # identical seed, identical metrics over 50 steps (wall-clock column excluded)
    cfg_a = tiny_run_config(small_corpus, tmp_path / "a", precision="f64", seed=13,
                            steps=50, eval_interval=10, ckpt_interval=50)
    cfg_b = tiny_run_config(small_corpus, tmp_path / "b", precision="f64", seed=13,
                            steps=50, eval_interval=10, ckpt_interval=50)
    res_a, res_b = train(cfg_a), train(cfg_b)
    same_metrics = metrics_equal(res_a.metrics_path, res_b.metrics_path)

    # resume reproduces the uninterrupted trajectory bitwise
    cfg_full = tiny_run_config(small_corpus, tmp_path / "full", precision="f64",
                               seed=13, steps=8, ckpt_interval=4)
    full = train(cfg_full)
    cfg_res = tiny_run_config(small_corpus, tmp_path / "res", precision="f64",
                              seed=13, steps=8, ckpt_interval=4)
    resumed = train(cfg_res, resume_from=os.path.join(cfg_full.out_dir, "ckpt-0000004.bin"))
    fa = load_checkpoint(full.final_checkpoint)
    fb = load_checkpoint(resumed.final_checkpoint)
    resume_ok = all(na == nb and ta.tobytes() == tb.tobytes()
                    for (na, ta), (nb, tb) in zip(fa.tensors, fb.tensors))
    full_rows = {r.step: r for r in parse_metrics(full.metrics_path)}
    for row in parse_metrics(resumed.metrics_path):
        twin = full_rows[row.step]
        resume_ok = resume_ok and row.to_line().rsplit(",", 1)[0] == twin.to_line().rsplit(",", 1)[0]

    # checkpoint round trip is byte-identical
    resaved = str(tmp_path / "resaved.bin")
    save_checkpoint(resaved, load_checkpoint(full.final_checkpoint))
    roundtrip_ok = open(full.final_checkpoint, "rb").read() == open(resaved, "rb").read()

    _verdict(8, same_metrics and resume_ok and roundtrip_ok,
             f"metrics bitwise: {same_metrics}, resume bitwise: {resume_ok}, "
             f"checkpoint round trip: {roundtrip_ok}")
