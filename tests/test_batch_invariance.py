"""Eval does not depend on the batch: a sequence's logits alone equal its
logits inside a batch, bitwise, for every variant at f32 and f64, k = 1 and
k = 2, at desk widths and at one layer of paper-base widths; and a split's
val BPC is the same at every ``batch_size``. Each product runs at a shape
that does not depend on the batch (``tensor._gemm``)."""

import dataclasses

import numpy as np
import pytest

from conftest import tiny_run_config
from s2moe.config import preset
from s2moe.data import ingest_corpus
from s2moe.model import LanguageModel
from s2moe.routing import VARIANTS
from s2moe.train import build_model, evaluate_model

WIDTHS = {"desk": preset("desk"), "paper-base": dataclasses.replace(preset("paper-base"), n_layers=1, seq_len=128)}


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sequence_logits_do_not_depend_on_the_batch(variant, precision, widths):
    cfg = dataclasses.replace(WIDTHS[widths], variant=variant, precision=precision)
    model = LanguageModel(cfg.model_config())
    tokens = np.random.default_rng(3).integers(0, cfg.vocab_size, (8, cfg.seq_len))
    for k in (1, 2):
        whole = model.lm_forward(tokens, "eval", k=k)[0].data
        four = model.lm_forward(tokens[:4], "eval", k=k)[0].data
        assert four.tobytes() == whole[:4].tobytes(), k
        for i in range(8):
            alone = model.lm_forward(tokens[i:i + 1], "eval", k=k)[0].data
            assert alone.tobytes() == whole[i:i + 1].tobytes(), (k, i)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_val_bpc_does_not_depend_on_batch_size(small_corpus, tmp_path, precision):
    """Batches of 1, 3, 7 and 8 windows give the same val BPC at k = 1 and
    k = 2. The split has 312 windows, so the last batch of 7 is short."""
    cfg = tiny_run_config(small_corpus, tmp_path, variant="s2moe", precision=precision)
    corpus = ingest_corpus(cfg.corpus, cfg.splits)
    model = build_model(cfg, corpus)
    for k in (1, 2):
        bpcs = {evaluate_model(model, corpus, dataclasses.replace(cfg, batch_size=b), k=k, split="val",
                               with_collapse=False).bpc for b in (1, 3, 7, 8)}
        assert len(bpcs) == 1, (k, bpcs)
