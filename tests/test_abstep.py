"""``tools/abstep.py`` on one tree against itself, at a tiny size: training
steps and eval batches at k = 1 and k = 2 are timed in turn and summarised,
eval with each tree's k = 1 over k = 2 batch time; a timed step is the
training loop's step, and a path without source, or a tree without the
timed step, is refused."""

import dataclasses
import importlib.util
import pathlib
import re
import shutil

import numpy as np
import pytest

from conftest import tiny_run_config
from s2moe.checkpoint import load_checkpoint
from s2moe.train import train

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("abstep", ROOT / "tools" / "abstep.py")
abstep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abstep)

TREE = re.compile(r"^(parent|change) +(\S+): median [\d.]+ ms, quartiles [\d.]+-[\d.]+ ms$")
RATIO = re.compile(r"^(parent|change) +(\S+): k=1/k=2 median batch time [\d.]+$")
VERDICT = re.compile(r"^change/parent median [\d.]+; change faster in \d+% of (\d+) (steps|batches)$")


def _check_summary(lines, count, unit):
    assert [TREE.match(line).groups() for line in lines[:2]] == [("parent", str(ROOT)), ("change", str(ROOT))]
    assert VERDICT.match(lines[2]).groups() == (str(count), unit)


def test_training_steps_of_a_tree_against_itself(monkeypatch, capsys):
    monkeypatch.setattr(abstep, "CORPUS_BYTES", 20_000)
    monkeypatch.setattr(abstep, "MODEL", dict(n_layers=1, d_model=32, n_heads=2, d_exp=16, n_experts=4,
                                              seq_len=32, batch_size=4))
    assert abstep.main([str(ROOT), str(ROOT), "--variant", "s2moe", "--steps", "3", "--warmup", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[0] == "abstep: s2moe desk training, 3 steps after 1 warm-up, order flipped every step"
    _check_summary(lines[1:], 3, "steps")


def test_eval_batches_at_both_k(small_corpus, tmp_path, capsys):
    final = train(tiny_run_config(small_corpus, tmp_path / "run", steps=1, variant="s2moe")).final_checkpoint
    assert abstep.main([str(ROOT), str(ROOT), "--eval", final, "--steps", "2", "--warmup", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    for k, block in zip((1, 2), (lines[:4], lines[4:8])):
        assert block[0] == f"abstep: eval of {final} at k={k}, 2 batches after 0 warm-up, order flipped every batch"
        _check_summary(block[1:], 2, "batches")
    assert [RATIO.match(line).groups() for line in lines[8:]] == [("parent", str(ROOT)), ("change", str(ROOT))]


@pytest.mark.parametrize("variant", ["smoe", "s2moe", "smoe-dropout", "xmoe", "stablemoe"])
def test_a_timed_step_is_a_training_loop_step(variant, small_corpus, tmp_path, monkeypatch):
    """n of abstep's steps leave the parameter and Adam-moment bytes that
    ``train`` leaves after n steps: the tool times ``train._train_step`` on
    the model, optimizer and batch source that ``train`` builds."""
    steps = 4
    monkeypatch.setattr(abstep, "MODEL", dataclasses.asdict(tiny_run_config(small_corpus, tmp_path, steps=steps)))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        tree = abstep.Tree("change", str(ROOT), str(tmp_path))
        tree.setup_training(variant, small_corpus, str(tmp_path / "abstep"))
        for step in range(steps):
            tree.train_step(step)
        final = tree.train.train(dataclasses.replace(tree.cfg, out_dir=str(tmp_path / "train"))).final_checkpoint
        state = {name: t.data for name, t in tree.model.parameters() + tree.adam.state()}
    finally:
        abstep.forget()
    saved = dict(load_checkpoint(final).tensors)
    assert saved.keys() == state.keys()
    for name, array in state.items():
        assert saved[name].dtype == array.dtype and saved[name].tobytes() == array.tobytes(), name


def test_refuses_a_path_without_source(tmp_path, capsys):
    assert abstep.main([str(ROOT), str(tmp_path)]) == 2
    assert "holds no src/s2moe" in capsys.readouterr().err


def test_refuses_a_tree_without_the_timed_step(tmp_path, capsys):
    """A tree whose ``train`` has no ``_train_step`` (every tree before it)
    is refused by name before any step is timed."""
    source = tmp_path / "older" / "src" / "s2moe"
    shutil.copytree(ROOT / "src" / "s2moe", source, ignore=shutil.ignore_patterns("__pycache__"))
    train_py = source / "train.py"
    train_py.write_text(train_py.read_text().replace("def _train_step(", "def _renamed_step("))
    assert abstep.main([str(ROOT), str(tmp_path / "older"), "--steps", "1", "--warmup", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {tmp_path / 'older'} has no train._train_step, the function abstep times\n"
