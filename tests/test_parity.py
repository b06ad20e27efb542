"""``tools/parity.py`` on one tree against itself, at a tiny size: every
variant and precision, the Jacobian reports, the long-sequence logits and
the T = 512 training-step gradients at each precision are equal, at the
BLAS thread count the environment sets; and a run whose probe text alone
differs is told apart."""

import importlib.util
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_tree_against_itself_is_equal(monkeypatch, capsys):
    monkeypatch.setattr(parity, "CORPUS_BYTES", 20_000)
    monkeypatch.setattr(parity, "RUN", dict(
        steps=2, seed=3, eval_interval=1, ckpt_interval=1, n_layers=1, d_model=32,
        n_heads=2, d_exp=16, n_experts=4, seq_len=32, batch_size=4))
    monkeypatch.setattr(parity, "PROBES", 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert parity.main([str(ROOT), str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16 and lines[0] == "blas threads: 1 (OPENBLAS_NUM_THREADS)" and lines[-1] == "parity: 10 of 10 runs equal"
    assert all(": equal; max |tensor diff| 0" in line for line in lines[1:-5])
    assert lines[-5] == "jacobian: equal; max |array diff| 0"
    assert lines[-4] == "long-sequence f64 T=256: equal; max |logit diff| 0"
    assert lines[-3] == "training step T=512 f32: equal; max |gradient diff| 0"
    assert lines[-2] == "training step T=512 f64: equal; max |gradient diff| 0"


def test_refuses_a_path_without_source(tmp_path, capsys):
    assert parity.main([str(ROOT), str(tmp_path)]) == 2
    assert "holds no src/s2moe" in capsys.readouterr().err


def test_probe_text_is_compared(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for run, probe in zip(runs, ("layer 0 report\nexit 0\n", "layer 0 other report\nexit 0\n")):
        run.mkdir()
        (run / "metrics.csv").write_text("step,wall_ms\n0,1.0\n")
        (run / "ckpt-final.bin").write_bytes(b"same")
        (run / "eval.txt").write_text("[eval]\n")
        (run / "probe.txt").write_text(probe)
        np.savez(run / "tensors.npz", w=np.zeros(2))
    assert parity._compare_run(*map(str, runs)) == (["probe"], 0.0)


def test_jacobian_text_differences_are_named_per_key():
    def reports(err0, err1, values, head="smoe probe 0:"):
        return (f"{head}\n[jacobian]\nrank = 3\nautodiff_fd_max_rel_err = {err0}\nleading_singular_values = 2.0,1.0\n"
                "smoe probe 1: refused: probe point sits on a top-k boundary (gap 1.000e-04)\n"
                f"s2moe probe 0:\n[jacobian]\nrank = 6\nautodiff_fd_max_rel_err = {err1}\n"
                f"leading_singular_values = {values}\n")

    a = reports(0.5, 0.25, "3.0,1.0")
    assert parity._jacobian_text_diffs(a, a) == {}
    assert parity._jacobian_text_diffs(a, reports(0.625, 0.5, "3.0,1.125")) == {
        "autodiff_fd_max_rel_err": (2, 0.25), "leading_singular_values": (1, 0.125)}
    assert parity._jacobian_text_diffs(a, reports(0.5, 0.25, "3.0,1.0", head="smoe probe 0: refused: gap")) == {
        "refused": (1, float("inf"))}


def test_step_gradients_are_compared_per_precision(tmp_path):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **{"f32:w": np.ones(2, np.float32), "f64:w": np.ones(2)})
    np.savez(b, **{"f32:w": np.ones(2, np.float32), "f64:w": np.array([1.0, 1.5])})
    assert parity._max_array_diff(str(a), str(b), prefix="f32:") == 0
    assert parity._max_array_diff(str(a), str(b), prefix="f64:") == 0.5
    assert parity._max_array_diff(str(a), str(b)) == 0.5


def test_thread_count_is_read_as_openblas_reads_it():
    assert parity._blas_threads({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "4"}) == "2 (OPENBLAS_NUM_THREADS)"
    assert parity._blas_threads({"OMP_NUM_THREADS": "4"}) == "4 (OMP_NUM_THREADS)"
    assert parity._blas_threads({}).startswith("library default")
