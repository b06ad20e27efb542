"""The benchmark's hooks into the program: every binding the traced run
(``perfbench/run.py --trace 1``) wraps still exists where it is looked up,
and a traced training run still counts tape records."""

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
    """The two-path layer's clean path runs through the bound
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
    """Attention is timed once per layer per step and the expert combine once
    per layer per path; the combine runs every expert inside one op, so
    ``ExpertBank.apply`` is never called under it."""
    cfg = tiny_run_config(small_corpus, tmp_path, steps=2, n_layers=2, variant=variant)
    recorder, bindings = spans.SpanRecorder(), spans.Bindings()
    workload.install_tracer(recorder, bindings)
    try:
        workload.train_mod.train(cfg)
    finally:
        bindings.restore()
    totals = recorder.totals()
    assert totals["model.attention"]["calls"] == 2 * 2
    assert totals["experts.combine"]["calls"] == 2 * 2 * paths
    assert "experts.apply" not in totals["experts.combine"]["children"]
    assert "experts.apply" not in totals
