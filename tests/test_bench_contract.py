"""The benchmark's hooks into the program: every binding the traced run
(``perfbench/run.py --trace 1``) wraps still exists where it is looked up,
a traced training run still counts tape records, and the probe that every
run, traced or not, installs still sees each step, forward and routed pair."""

import sys
from pathlib import Path

import pytest

from conftest import tiny_run_config

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workload  # noqa: E402


def test_layer_spans_resolve_where_bindings_look_them_up():
    for owner, attr, name in workload.LAYER_SPANS:
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{name}: {owner!r} has no '{attr}'"


def test_traced_train_counts_tape_records(small_corpus, tmp_path):
    cfg = tiny_run_config(small_corpus, tmp_path, steps=2)
    recorder, bindings = spans.SpanRecorder(), spans.Bindings()
    workload.install_tracer(recorder, bindings)
    try:
        workload.train_mod.train(cfg)
    finally:
        restored = bindings.restore()
    assert restored
    assert recorder.totals()["tensor.backward"]["calls"] == 2
    assert recorder.counts["tensor.tape_records"] > 0


@pytest.mark.parametrize("variant", ["s2moe", "smoe"])
def test_traced_train_records_moe_spans(small_corpus, tmp_path, variant):
    """The two-path layer runs both paths, stacked, through the bound
    ``SmoeLayer.forward``, so it is timed inside ``moe.s2moe_forward``."""
    cfg = tiny_run_config(small_corpus, tmp_path, steps=2, variant=variant)
    recorder, bindings = spans.SpanRecorder(), spans.Bindings()
    workload.install_tracer(recorder, bindings)
    try:
        workload.train_mod.train(cfg)
    finally:
        bindings.restore()
    totals = recorder.totals()
    assert totals["moe.smoe_forward"]["calls"] == 2
    if variant == "s2moe":
        assert totals["moe.s2moe_forward"]["calls"] == 2
        assert totals["moe.s2moe_forward"]["children"]["moe.smoe_forward"] == 2
    else:
        assert "moe.s2moe_forward" not in totals


@pytest.mark.parametrize("variant, paths", [("s2moe", 2), ("smoe", 1)])
def test_traced_train_times_each_fused_op_once_per_call(small_corpus, tmp_path, variant, paths):
    """Attention and the expert combine are each timed once per layer per
    step: the two-path layer's combine runs its clean and noisy rows as one
    stacked batch of ``paths`` times the step's sequences. The combine runs
    every expert inside one op, so ``ExpertBank.apply`` is never called
    under it."""
    cfg = tiny_run_config(small_corpus, tmp_path, steps=2, n_layers=2, variant=variant)
    recorder, bindings = spans.SpanRecorder(), spans.Bindings()
    workload.install_tracer(recorder, bindings)
    heights = []
    bindings.wrap(workload.moe_mod, "moe_combine",
                  lambda combine: lambda x, *args: heights.append(x.shape[0]) or combine(x, *args))
    try:
        workload.train_mod.train(cfg)
    finally:
        bindings.restore()
    totals = recorder.totals()
    assert totals["model.attention"]["calls"] == 2 * 2
    assert totals["experts.combine"]["calls"] == 2 * 2
    assert heights == [paths * cfg.batch_size] * (2 * 2)
    assert "experts.apply" not in totals["experts.combine"]["children"]
    assert "experts.apply" not in totals


def test_untraced_probe_sees_an_episode_and_both_eval_passes(small_corpus, tmp_path):
    """``workload.Probe`` is all an untraced run (``--trace 0``) installs: it
    stamps every step from ``make_batch``, captures the model from
    ``build_model`` and reads each ``lm_forward``'s decisions."""
    cfg = tiny_run_config(small_corpus, tmp_path, steps=2)
    bindings = spans.Bindings()
    probe = workload.Probe(bindings)
    try:
        episode = workload.run_episode(cfg, probe)
        passes = {k: workload.run_eval_pass(episode.final_checkpoint, k, collapse, probe)
                  for k, collapse in ((1, False), (2, True))}
    finally:
        restored = bindings.restore()
    assert restored
    assert len(episode.stamps) == len(episode.step_s) == cfg.steps
    assert [(mode, k) for mode, k, _ in episode.forwards] == [("train", cfg.k_train)] * cfg.steps
    for unit in [episode, *passes.values()]:
        assert unit.invocations == unit.routed_pairs > 0
    for k, unit in passes.items():
        assert unit.k == k and unit.forwards
        assert {(mode, k_used) for mode, k_used, _ in unit.forwards} == {("eval", k)}
