"""Run-level parity of two s2moe source trees.

    python tools/parity.py TREE_A TREE_B

Each tree is a checkout: a directory holding ``src/s2moe``. Each tree runs,
in its own subprocess, every variant at f32 and f64: a short desk-preset
training run, then ``s2moe eval`` of its final checkpoint on the val split at
k=1 and k=2, and ``s2moe probe --layer 0`` of it. A run is equal in the two
trees when its ``metrics.csv`` rows match without ``wall_ms``, every
checkpoint file matches byte for byte, the eval text (BPC and ``[collapse]``
report) matches at both k, and the probe text (Jacobian and collapse reports,
or its refusal, with its exit code) matches.

Each tree's process also probes acceptance criterion 5's two layers (a plain
and a two-path layer, d=32, N=4, layer seeds 21 and 22, context stats from
seed 23) at the probe vectors from seeds 1000 on. The Jacobian reports are
equal when every report's text (or its refusal) and every array match.

Each tree's process also runs one long-sequence eval: the logits of a fresh
one-layer f64 s2moe model (seed 5) on two fixed sequences of T = 256, past
the 128 positions of a desk run, where an attention tile sums a row over
fewer columns than the full row.

Each tree's process also takes one training step at T = 512 (``train._step``
on a fresh one-layer s2moe model: d = 64, 4 heads, 4 experts, batch 2, seed 0)
at f32 and at f64, and keeps its loss and every parameter gradient. The desk
runs are 128 positions long, so only this step puts an attention backward
past 128 positions, and a training step's dropout and noise, against the
other tree.

Both trees inherit this process's environment, and the first line names the
BLAS thread count it asks for and the variable that set it. A tree whose
``s2moe.tensor`` pins BLAS to one thread at import gives the same bits at
any count; a tree from before the pin runs at the count asked for, so
compare a pinned tree against a pre-pin parent with
``OPENBLAS_NUM_THREADS=1 python tools/parity.py PARENT CHANGE``.

One line per variant and precision says equal or different, with the largest
absolute difference over all checkpoint tensors, and one more line each does
the same for the Jacobian reports, the long-sequence logits and, per
precision, the training-step gradients. Exit 0 when every run, the reports,
the logits and the gradients are equal, 1 when one differs, 2 when an
argument is not a checkout.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = ("smoe", "s2moe", "smoe-dropout", "xmoe", "stablemoe")
PRECISIONS = ("f32", "f64")
EVAL_K = (1, 2)
CORPUS_SEED = 7
CORPUS_BYTES = 1_000_000
# fields set on the desk preset for every run
RUN = {"steps": 12, "seed": 3, "eval_interval": 2, "ckpt_interval": 4}
PROBES = 60  # criterion-5 probe vectors per layer
LONG_T = 256  # the long-sequence eval's length
STEP_T = 512  # the training step's length


def run_tree(out: str, run: dict, corpus_bytes: int, probes: int) -> None:
    """Train and evaluate every run under ``out`` with the importable s2moe,
    then write the Jacobian reports."""
    from s2moe.checkpoint import load_checkpoint
    from s2moe.cli import cli
    from s2moe.config import preset
    from s2moe.data import make_synthetic_corpus
    from s2moe.train import train

    corpus = make_synthetic_corpus(os.path.join(out, "corpus.txt"), n_bytes=corpus_bytes, seed=CORPUS_SEED)
    for variant in VARIANTS:
        for precision in PRECISIONS:
            run_dir = os.path.join(out, f"{variant}-{precision}")
            cfg = preset("desk")
            for key, value in dict(run, variant=variant, precision=precision,
                                   corpus=corpus, out_dir=run_dir).items():
                setattr(cfg, key, value)
            final = train(cfg).final_checkpoint
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                for k in EVAL_K:
                    if cli(["eval", "--ckpt", final, "--k", str(k), "--split", "val"]) != 0:
                        raise SystemExit(f"s2moe eval failed on {final} at k={k}")
            with open(os.path.join(run_dir, "eval.txt"), "w", encoding="utf-8") as fh:
                fh.write(text.getvalue())
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = cli(["probe", "--ckpt", final, "--layer", "0"])
            with open(os.path.join(run_dir, "probe.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"{text.getvalue()}exit {code}\n")
            np.savez(os.path.join(run_dir, "tensors.npz"),
                     **{f"{name}:{tensor}": arr for name in _checkpoints(run_dir)
                        for tensor, arr in load_checkpoint(os.path.join(run_dir, name)).tensors})
    jacobian_reports(out, probes)
    long_sequence_logits(out)
    step_gradients(out)


def long_sequence_logits(out: str) -> None:
    """``long.npz`` under ``out``: eval logits of a one-layer f64 model at T = ``LONG_T``."""
    from s2moe.model import LanguageModel, ModelConfig

    cfg = ModelConfig(n_layers=1, d_model=64, n_heads=4, d_exp=128, n_experts=4, seq_len=LONG_T,
                      variant="s2moe", precision="f64", seed=5)
    tokens = np.random.default_rng(CORPUS_SEED).integers(0, cfg.vocab_size, (2, LONG_T))
    logits, _ = LanguageModel(cfg).lm_forward(tokens, "eval", k=2)
    np.savez(os.path.join(out, "long.npz"), logits=logits.data)


def step_gradients(out: str) -> None:
    """``grads.npz`` under ``out``: the loss and parameter gradients of one
    s2moe training step at T = ``STEP_T``, at each precision."""
    from s2moe.config import preset
    from s2moe.model import LanguageModel
    from s2moe.train import _step

    arrays = {}
    for precision in PRECISIONS:
        cfg = preset("desk")
        for key, value in dict(n_layers=1, d_model=64, n_heads=4, d_exp=128, n_experts=4, seq_len=STEP_T,
                               batch_size=2, variant="s2moe", precision=precision, vocab_size=257, seed=0).items():
            setattr(cfg, key, value)
        model = LanguageModel(cfg.model_config())
        x, y = np.random.default_rng(CORPUS_SEED).integers(0, cfg.vocab_size, (2, 2, STEP_T))
        arrays[f"{precision}:loss"] = _step(model, cfg, x, y, cfg.k_train, 0)[4].data
        arrays.update((f"{precision}:{name}", p.grad) for name, p in model.parameters() if p.grad is not None)
    np.savez(os.path.join(out, "grads.npz"), **arrays)


def jacobian_reports(out: str, probes: int) -> None:
    """Criterion 5's probes, as ``jacobian.txt`` (each report or refusal) and
    ``jacobian.npz`` (each report's arrays) under ``out``."""
    from s2moe.diagnostics import format_jacobian_report, jacobian_probe
    from s2moe.moe import S2MoeLayer, SmoeLayer
    from s2moe.stochastic import RngStream, compute_batch_stats
    from s2moe.tensor import Tensor

    d, n = 32, 4
    ctx = compute_batch_stats(Tensor(np.random.default_rng(23).standard_normal((4, 16, d))))
    texts, arrays = [], {}
    for name, layer in (("smoe", SmoeLayer(d, n, 16, RngStream(21), dtype=np.float64)),
                        ("s2moe", S2MoeLayer(d, n, 16, RngStream(22), dtype=np.float64))):
        stochastic = name == "s2moe"
        for seed in range(probes):
            v = np.random.default_rng(1000 + seed).standard_normal(d)
            try:
                report = jacobian_probe(layer, v, k=n, stats=ctx if stochastic else None,
                                        noise_rng=RngStream(seed) if stochastic else None)
            except ValueError as err:
                texts.append(f"{name} probe {seed}: refused: {err}")
                continue
            texts.append(f"{name} probe {seed}:\n{format_jacobian_report(report)}")
            for field in ("jacobian", "jacobian_fixed_gates", "routing_residual", "singular_values"):
                arrays[f"{name}:{seed}:{field}"] = getattr(report, field)
    with open(os.path.join(out, "jacobian.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(texts) + "\n")
    np.savez(os.path.join(out, "jacobian.npz"), **arrays)


def _checkpoints(run_dir: str) -> list[str]:
    return sorted(name for name in os.listdir(run_dir) if name.endswith(".bin"))


def _read(path: str, mode: str = "r"):
    with open(path, mode) as fh:
        return fh.read()


def _metrics_rows(run_dir: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in _read(os.path.join(run_dir, "metrics.csv")).splitlines()]


def _max_array_diff(a: str, b: str, prefix: str = "") -> float:
    """Largest absolute difference between two ``.npz`` files' arrays whose
    names start with ``prefix`` (NaN when either holds a NaN, so it never
    reads as 0)."""
    with np.load(a) as ta, np.load(b) as tb:
        keys = sorted(key for key in ta.files if key.startswith(prefix))
        if keys != sorted(key for key in tb.files if key.startswith(prefix)):
            return float("inf")
        worst = 0.0
        for key in keys:
            x, y = ta[key], tb[key]
            if x.shape != y.shape:
                return float("inf")
            if x.size:
                worst = float(np.max(np.abs(x.astype(np.float64) - y.astype(np.float64)), initial=worst))
        return worst


def _compare_run(a: str, b: str) -> tuple[list[str], float]:
    """What differs between two run directories, and the largest tensor difference."""
    differs = []
    if _metrics_rows(a) != _metrics_rows(b):
        differs.append("metrics")
    names = _checkpoints(a)
    if names != _checkpoints(b) or any(_read(os.path.join(a, n), "rb") != _read(os.path.join(b, n), "rb")
                                       for n in names):
        differs.append("checkpoints")
    for report in ("eval", "probe"):
        if _read(os.path.join(a, f"{report}.txt")) != _read(os.path.join(b, f"{report}.txt")):
            differs.append(report)
    return differs, _max_array_diff(os.path.join(a, "tensors.npz"), os.path.join(b, "tensors.npz"))


def _blas_threads(env: dict) -> str:
    """The BLAS thread count ``env`` sets, as OpenBLAS reads it:
    ``OPENBLAS_NUM_THREADS`` before ``OMP_NUM_THREADS``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if env.get(var):
            return f"{env[var]} ({var})"
    return "library default (no OPENBLAS_NUM_THREADS or OMP_NUM_THREADS)"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/parity.py TREE_A TREE_B", file=sys.stderr)
        return 2
    sources = [os.path.join(os.path.abspath(tree), "src") for tree in args]
    for tree, src in zip(args, sources):
        if not os.path.isfile(os.path.join(src, "s2moe", "__init__.py")):
            print(f"error: {tree} holds no src/s2moe", file=sys.stderr)
            return 2

    print(f"blas threads: {_blas_threads(os.environ)}")
    with tempfile.TemporaryDirectory(prefix="s2moe-parity-") as work:
        # both trees run at one path, so the config echo in their checkpoints agrees
        run_at, outs = os.path.join(work, "run"), []
        for label, src in zip("ab", sources):
            os.makedirs(run_at)
            code = (f"import sys; sys.path.insert(0, {HERE!r}); import parity; "
                    f"parity.run_tree({run_at!r}, {RUN!r}, {CORPUS_BYTES!r}, {PROBES!r})")
            env = dict(os.environ, PYTHONPATH=src)
            subprocess.run([sys.executable, "-c", code], cwd=run_at, env=env, check=True)
            outs.append(os.path.join(work, label))
            os.rename(run_at, outs[-1])

        equal = 0
        for variant in VARIANTS:
            for precision in PRECISIONS:
                name = f"{variant}-{precision}"
                differs, diff = _compare_run(*(os.path.join(out, name) for out in outs))
                verdict = f"different ({', '.join(differs)})" if differs else "equal"
                print(f"{variant:<12} {precision}: {verdict}; max |tensor diff| {diff:.3g}")
                equal += not differs
        a, b = (os.path.join(out, "jacobian") for out in outs)
        diff = _max_array_diff(a + ".npz", b + ".npz")
        jacobian_equal = _read(a + ".txt") == _read(b + ".txt") and diff == 0
        print(f"jacobian: {'equal' if jacobian_equal else 'different'}; max |array diff| {diff:.3g}")
        long_diff = _max_array_diff(*(os.path.join(out, "long.npz") for out in outs))
        print(f"long-sequence f64 T={LONG_T}: {'equal' if long_diff == 0 else 'different'}; "
              f"max |logit diff| {long_diff:.3g}")
        grad_diffs = [_max_array_diff(*(os.path.join(out, "grads.npz") for out in outs), prefix=f"{precision}:")
                      for precision in PRECISIONS]
        for precision, grad_diff in zip(PRECISIONS, grad_diffs):
            print(f"training step T={STEP_T} {precision}: {'equal' if grad_diff == 0 else 'different'}; "
                  f"max |gradient diff| {grad_diff:.3g}")
    total = len(VARIANTS) * len(PRECISIONS)
    print(f"parity: {equal} of {total} runs equal")
    return 0 if equal == total and jacobian_equal and long_diff == 0 and not any(grad_diffs) else 1


if __name__ == "__main__":
    sys.exit(main())
