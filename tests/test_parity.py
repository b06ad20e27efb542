"""``tools/parity.py`` on one tree against itself, at a tiny size: every
variant and precision is equal."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_tree_against_itself_is_equal(monkeypatch, capsys):
    monkeypatch.setattr(parity, "CORPUS_BYTES", 20_000)
    monkeypatch.setattr(parity, "RUN", dict(
        steps=2, seed=3, eval_interval=1, ckpt_interval=1, n_layers=1, d_model=32,
        n_heads=2, d_exp=16, n_experts=4, seq_len=32, batch_size=4))
    assert parity.main([str(ROOT), str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11 and lines[-1] == "parity: 10 of 10 runs equal"
    assert all(": equal; max |tensor diff| 0" in line for line in lines[:-1])


def test_refuses_a_path_without_source(tmp_path, capsys):
    assert parity.main([str(ROOT), str(tmp_path)]) == 2
    assert "holds no src/s2moe" in capsys.readouterr().err
