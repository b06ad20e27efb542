"""Run-level parity of two s2moe source trees.

    python tools/parity.py TREE_A TREE_B

Each tree is a checkout: a directory holding ``src/s2moe``. Each tree runs,
in its own subprocess, every variant at f32 and f64: a short desk-preset
training run, then ``s2moe eval`` of its final checkpoint on the val split at
k=1 and k=2. A run is equal in the two trees when its ``metrics.csv`` rows
match without ``wall_ms``, every checkpoint file matches byte for byte, and
the eval text (BPC and ``[collapse]`` report) matches at both k.

One line per variant and precision says equal or different, with the largest
absolute difference over all checkpoint tensors. Exit 0 when every run is
equal, 1 when one differs, 2 when an argument is not a checkout.
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


def run_tree(out: str, run: dict, corpus_bytes: int) -> None:
    """Train and evaluate every run under ``out`` with the importable s2moe."""
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
            np.savez(os.path.join(run_dir, "tensors.npz"),
                     **{f"{name}:{tensor}": arr for name in _checkpoints(run_dir)
                        for tensor, arr in load_checkpoint(os.path.join(run_dir, name)).tensors})


def _checkpoints(run_dir: str) -> list[str]:
    return sorted(name for name in os.listdir(run_dir) if name.endswith(".bin"))


def _read(path: str, mode: str = "r"):
    with open(path, mode) as fh:
        return fh.read()


def _metrics_rows(run_dir: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in _read(os.path.join(run_dir, "metrics.csv")).splitlines()]


def _max_tensor_diff(a: str, b: str) -> float:
    with np.load(os.path.join(a, "tensors.npz")) as ta, np.load(os.path.join(b, "tensors.npz")) as tb:
        if sorted(ta.files) != sorted(tb.files):
            return float("inf")
        worst = 0.0
        for key in ta.files:
            x, y = ta[key], tb[key]
            if x.shape != y.shape:
                return float("inf")
            if x.size:
                worst = max(worst, float(np.max(np.abs(x.astype(np.float64) - y.astype(np.float64)))))
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
    if _read(os.path.join(a, "eval.txt")) != _read(os.path.join(b, "eval.txt")):
        differs.append("eval")
    return differs, _max_tensor_diff(a, b)


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

    with tempfile.TemporaryDirectory(prefix="s2moe-parity-") as work:
        # both trees run at one path, so the config echo in their checkpoints agrees
        run_at, outs = os.path.join(work, "run"), []
        for label, src in zip("ab", sources):
            os.makedirs(run_at)
            code = (f"import sys; sys.path.insert(0, {HERE!r}); import parity; "
                    f"parity.run_tree({run_at!r}, {RUN!r}, {CORPUS_BYTES!r})")
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
    total = len(VARIANTS) * len(PRECISIONS)
    print(f"parity: {equal} of {total} runs equal")
    return 0 if equal == total else 1


if __name__ == "__main__":
    sys.exit(main())
