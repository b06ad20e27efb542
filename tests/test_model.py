"""Decoder LM tests: causality, a straight-line forward oracle, k switching."""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from s2moe.config import RunConfig, preset
from s2moe.data import Corpus
from s2moe.model import LanguageModel, ModelConfig
from s2moe.stochastic import RngStream
from s2moe.tensor import Tape, backward
from s2moe.train import evaluate_model

F64 = np.float64


def tiny_cfg(**kw):
    base = dict(n_layers=1, d_model=8, n_heads=2, d_exp=6, n_experts=4,
                k_train=2, k_eval=2, vocab_size=5, seq_len=6, dropout=0.0,
                variant="smoe", seed=3, precision="f64")
    base.update(kw)
    return ModelConfig(**base)


def eval_setup(model):
    """A corpus over the model's vocabulary and a run config with the model's fields."""
    tokens = np.random.default_rng(9).integers(0, model.cfg.vocab_size, size=40)
    corpus = Corpus(vocab_bytes=list(range(model.cfg.vocab_size - 1)), unk_id=model.cfg.vocab_size - 1,
                    train=tokens, val=tokens, test=tokens)
    fields = dataclasses.asdict(model.cfg)
    fields.update(stage_boundary=-1, batch_size=2)
    return corpus, RunConfig(**fields)


def reference_forward(model, tokens, k):
    """Independent numpy evaluation of the whole eval-mode forward pass."""
    cfg = model.cfg
    b, t = tokens.shape

    def ln(x, g, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + bias

    x = model.embed.data[tokens] + model.pos.data[:t]
    for blk in model.blocks:
        h = ln(x, blk.ln1_g.data, blk.ln1_b.data)
        nh = blk.attn.n_heads
        dh = cfg.d_model // nh
        q = (h @ blk.attn.wq.data).reshape(b, t, nh, dh).transpose(0, 2, 1, 3)
        kk = (h @ blk.attn.wk.data).reshape(b, t, nh, dh).transpose(0, 2, 1, 3)
        v = (h @ blk.attn.wv.data).reshape(b, t, nh, dh).transpose(0, 2, 1, 3)
        scores = q @ kk.transpose(0, 1, 3, 2) / np.sqrt(dh)
        scores = scores + np.triu(np.full((t, t), -1e9), k=1)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        attn = e / e.sum(-1, keepdims=True)
        mixed = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, cfg.d_model)
        x = x + mixed @ blk.attn.wo.data

        h = ln(x, blk.ln2_g.data, blk.ln2_b.data)
        router = blk.moe.router
        s = h @ router.w_e.data.T
        es = np.exp(s - s.max(-1, keepdims=True))
        probs = es / es.sum(-1, keepdims=True)
        order = np.argsort(-probs, axis=-1, kind="stable")[..., :k]
        gates = np.zeros_like(probs)
        np.put_along_axis(gates, order, np.take_along_axis(probs, order, -1), -1)
        bank = blk.moe.experts
        moe_out = np.zeros_like(h)
        for i in range(cfg.n_experts):
            hid = np.maximum(h @ bank.w1[i].data + bank.b1[i].data, 0)
            moe_out += gates[..., i:i + 1] * (hid @ bank.w2[i].data + bank.b2[i].data)
        x = x + moe_out

    h = ln(x, model.lnf_g.data, model.lnf_b.data)
    return h @ model.embed.data.T


class TestLmForward:
    def test_causality_probe(self):
        model = LanguageModel(tiny_cfg())
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 5, size=(1, 6))
        base, _ = model.lm_forward(tokens, mode="eval")
        for pos in range(6):
            mutated = tokens.copy()
            mutated[0, pos] = (mutated[0, pos] + 1) % 5
            out, _ = model.lm_forward(mutated, mode="eval")
            delta = np.abs(out.data - base.data).max(axis=-1)[0]
            assert np.all(delta[:pos] == 0.0), f"position {pos} leaked backwards"
            assert delta[pos] > 0.0

    def test_matches_straight_line_reference(self):
        model = LanguageModel(tiny_cfg())
        tokens = np.random.default_rng(1).integers(0, 5, size=(2, 4))
        logits, _ = model.lm_forward(tokens, mode="eval")
        expect = reference_forward(model, tokens, k=2)
        np.testing.assert_allclose(logits.data, expect, rtol=1e-10, atol=1e-12)

    def test_eval_s2moe_equals_smoe_with_identical_weights(self):
        a = LanguageModel(tiny_cfg(variant="smoe"))
        b = LanguageModel(tiny_cfg(variant="s2moe"))
        tokens = np.random.default_rng(2).integers(0, 5, size=(2, 5))
        la, _ = a.lm_forward(tokens, mode="eval")
        lb, _ = b.lm_forward(tokens, mode="eval")
        assert la.data.tobytes() == lb.data.tobytes()

    def test_rejects_long_sequences_and_bad_mode(self):
        model = LanguageModel(tiny_cfg())
        with pytest.raises(ValueError):
            model.lm_forward(np.zeros((1, 9), dtype=int), mode="eval")
        with pytest.raises(ValueError):
            model.lm_forward(np.zeros((1, 3), dtype=int), mode="predict")

    @pytest.mark.parametrize("variant", ["smoe", "s2moe"])
    def test_train_mode_needs_a_stream(self, variant):
        model = LanguageModel(tiny_cfg(variant=variant))
        with pytest.raises(ValueError, match="RngStream"):
            model.lm_forward(np.zeros((1, 3), dtype=int), mode="train")

    @pytest.mark.parametrize("variant", ["smoe", "s2moe"])
    def test_eval_draws_nothing_from_a_given_stream(self, variant):
        model = LanguageModel(tiny_cfg(variant=variant, dropout=0.5))
        tokens = np.random.default_rng(3).integers(0, 5, size=(2, 4))
        rng = RngStream(5, counter=7)
        with_stream, _ = model.lm_forward(tokens, mode="eval", rng=rng)
        without, _ = model.lm_forward(tokens, mode="eval")
        assert rng.counter == 7
        assert with_stream.data.tobytes() == without.data.tobytes()
        model.lm_forward(tokens, mode="train", rng=rng)
        assert rng.counter > 7  # the same stream does draw in train mode

    def test_aux_carries_decisions_and_pools(self):
        model = LanguageModel(tiny_cfg(variant="s2moe"))
        tokens = np.random.default_rng(3).integers(0, 5, size=(2, 4))
        with Tape():
            _, aux = model.lm_forward(tokens, mode="train", rng=RngStream(5))
        assert len(aux) == 1
        assert aux[0].decision.probs.shape == (2, 4, 4)
        assert aux[0].pooled_clean.shape == (2, 8)
        assert aux[0].decision_noisy is not None


class TestInferenceK:
    def test_full_k_makes_gates_equal_probs(self):
        model = LanguageModel(tiny_cfg())
        tokens = np.random.default_rng(4).integers(0, 5, size=(1, 4))
        _, aux = model.lm_forward(tokens, mode="eval", k=4)
        np.testing.assert_array_equal(aux[0].decision.gates.data, aux[0].decision.probs.data)

    def test_invocation_counter_doubles_with_k(self):
        model = LanguageModel(tiny_cfg())
        tokens = np.random.default_rng(5).integers(0, 5, size=(2, 6))
        counts = {}
        for k in (1, 2):
            for blk in model.blocks:
                blk.moe.experts.invocations = 0
            model.lm_forward(tokens, mode="eval", k=k)
            counts[k] = sum(blk.moe.experts.invocations for blk in model.blocks)
        assert counts[2] == 2 * counts[1] == 2 * 2 * 6

    def test_k_outside_range_refused_by_forward_and_evaluate(self):
        model = LanguageModel(tiny_cfg())
        corpus, run_cfg = eval_setup(model)
        tokens = np.random.default_rng(4).integers(0, 5, size=(1, 4))
        for k in (0, 5):
            with pytest.raises(ValueError, match=rf"^k={k} out of range \[1, 4\]$"):
                model.lm_forward(tokens, mode="eval", k=k)
            with pytest.raises(ValueError, match=rf"^k={k} out of range \[1, 4\]$"):
                evaluate_model(model, corpus, run_cfg, k=k, split="val")
        # refused before any batch runs
        assert sum(blk.moe.experts.invocations for blk in model.blocks) == 0

    def test_evaluate_leaves_default_eval_k_unchanged(self):
        model = LanguageModel(tiny_cfg())
        corpus, run_cfg = eval_setup(model)
        assert evaluate_model(model, corpus, run_cfg, k=1, split="val", with_collapse=False).k == 1
        tokens = np.random.default_rng(4).integers(0, 5, size=(1, 4))
        _, aux = model.lm_forward(tokens, mode="eval")
        assert aux[0].decision.k_used == model.cfg.k_eval == 2

    def test_k_only_affects_moe_sublayer(self):
        # with expert output projections zeroed, the MoE sublayer contributes
        # nothing, so logits must be identical for every k
        model = LanguageModel(tiny_cfg())
        for blk in model.blocks:
            for i in range(model.cfg.n_experts):
                blk.moe.experts.w2[i].data[:] = 0.0
                blk.moe.experts.b2[i].data[:] = 0.0
        tokens = np.random.default_rng(6).integers(0, 5, size=(1, 5))
        outs = []
        for k in (1, 2, 4):
            logits, _ = model.lm_forward(tokens, mode="eval", k=k)
            outs.append(logits.data.copy())
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()


def test_end_to_end_grad_check_tiny_model():
    """Whole-model gradient vs finite differences through one parameter slab."""
    cfg = tiny_cfg(n_experts=2, k_train=1, d_exp=4, seq_len=4)
    model = LanguageModel(cfg)
    tokens = np.random.default_rng(7).integers(0, 5, size=(1, 4))
    targets = np.random.default_rng(8).integers(0, 5, size=(1, 4))
    err = grad_check_param(model, model.blocks[0].attn.wq, tokens, targets)
    assert err < 1e-3


def grad_check_param(model, param, tokens, targets, epsilon=1e-5):
    """FD check for one named parameter of the model loss."""
    from s2moe.losses import task_loss

    with Tape():
        logits, _ = model.lm_forward(tokens, mode="train", rng=RngStream(0))
        loss = task_loss(logits, targets)[0]
        backward(loss)
    analytic = param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
    model.zero_grad()

    flat = param.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        vals = []
        for sign in (+1.0, -1.0):
            flat[i] = orig + sign * epsilon
            logits, _ = model.lm_forward(tokens, mode="train", rng=RngStream(0))
            vals.append(task_loss(logits, targets)[0].item())
        flat[i] = orig
        numeric[i] = (vals[0] - vals[1]) / (2 * epsilon)
    numeric = numeric.reshape(param.data.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_training_step_holds_only_what_its_backward_reads():
    """One s2moe f32 training step at T = 512 (1 layer, d = 64, 4 heads, 4
    experts, batch 2) peaks well below what the graph held when records kept
    their inputs to the block's exit and the glue ran as separate ops
    (39.6 MiB then), below what it held while attention kept its
    probabilities and dropout float masks (27.3 MiB), and below what it held
    while the attention backward filled the whole (B, h, T, T) square
    (20.6 MiB; 13.6 MiB after that, under a 16 MiB bound). Since the
    two-path layer stacks its paths and the expert backward frees each slab
    once used, it peaks at 13.4 MiB (when this bound was set)."""
    train_mod = importlib.import_module("s2moe.train")
    cfg = dataclasses.replace(preset("desk"), n_layers=1, d_model=64, n_heads=4, d_exp=128,
                              n_experts=4, seq_len=512, batch_size=2, variant="s2moe",
                              precision="f32", vocab_size=257)
    model = LanguageModel(cfg.model_config())
    rng = np.random.default_rng(0)
    x, y = (rng.integers(0, 257, (2, 512)) for _ in range(2))
    train_mod._step(model, cfg, x, y, cfg.k_train, 0)  # caches and lazy allocations
    tracemalloc.start()
    try:
        train_mod._step(model, cfg, x, y, cfg.k_train, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2**20, f"step peak {peak / 2**20:.1f} MiB"
