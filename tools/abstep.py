"""Step times of two s2moe source trees, interleaved in one process.

    python tools/abstep.py PARENT CHANGE [--variant V] [--steps N] [--warmup W]
                           [--eval CKPT]

Each tree is a checkout: a directory holding ``src/s2moe``. Each tree's
package is copied under a name of its own, so both import into this one
process. Each builds its desk-preset model (``--variant``, the preset's
seed) over one synthetic corpus, and the two take their training steps in
turn, the order flipped every step: step i of one tree, then step i of the
other. A step is the training loop's own, ``train._train_step``: the batch,
the forward, the backward, the clip and Adam. Separate processes on a shared
box see different machine noise; steps interleaved this closely see the same.

With ``--eval CKPT`` each tree rebuilds the run from the checkpoint instead
and the trees take turns on eval batches (``train.window_nats`` over the val
split's windows in order), at k = 1 and then at k = 2; then each tree's median
k = 1 batch time over its median k = 2 batch time.

The first ``--warmup`` steps of each tree are not counted: they pay the
heap's growth. Per tree, the median and quartiles of the counted steps, then
the change's median over the parent's and the share of steps in which the
change took less time than the parent's step of the same index. Exit 0, or
2 when an argument is not a checkout or lacks a function the timing calls
(``train._train_step``, or ``train.window_nats`` with ``--eval``).
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import shutil
import sys
import tempfile
import time

import numpy as np

LABELS = ("parent", "change")
CORPUS_SEED = 1
CORPUS_BYTES = 1_000_000
# fields set on the desk preset for every run
MODEL: dict = {}


class Tree:
    """One checkout's package, imported under its own name, and its model."""

    def __init__(self, label: str, tree: str, work: str):
        self.label, self.tree = label, tree
        self.name = f"abstep_{label}"
        shutil.copytree(os.path.join(tree, "src", "s2moe"), os.path.join(work, self.name),
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.pkg = importlib.import_module(self.name)
        self.train = importlib.import_module(f"{self.name}.train")
        self.times: list[float] = []

    def setup_training(self, variant: str, corpus: str, out_dir: str) -> None:
        cfg = importlib.import_module(f"{self.name}.config").preset("desk")
        for key, value in dict(MODEL, variant=variant, corpus=corpus, out_dir=out_dir).items():
            setattr(cfg, key, value)
        tr = self.train
        self.cfg, self.corpus = cfg, tr.ingest_corpus(cfg.corpus, cfg.splits)
        self.model = tr.build_model(cfg, self.corpus)
        self.adam = tr.Adam(self.model.parameters(), cfg.lr, cfg.beta1, cfg.beta2, cfg.eps_adam)
        self.pairs = tr.pair_count(self.corpus.train, cfg.seq_len)

    def train_step(self, step: int) -> float:
        """One training step as ``train`` takes it; its seconds."""
        start = time.perf_counter()
        self.train._train_step(self.model, self.adam, self.cfg, self.corpus.train, self.pairs, step)
        return time.perf_counter() - start

    def setup_eval(self, ckpt: str) -> None:
        self.cfg, self.corpus, self.model = self.train.load_run(ckpt)
        self.val = self.corpus.split("val")
        self.pairs = self.train.pair_count(self.val, self.cfg.seq_len)

    def eval_batch(self, i: int, k: int) -> float:
        """The val split's ``i``-th batch of windows (cycling) at k, scored by
        ``window_nats`` as ``evaluate_model`` scores it; its seconds."""
        cfg = self.cfg
        first = (i % math.ceil(self.pairs / cfg.batch_size)) * cfg.batch_size
        start = time.perf_counter()
        self.train.window_nats(self.model, self.val, cfg.seq_len, range(first, min(first + cfg.batch_size, self.pairs)),
                               k, "val")
        return time.perf_counter() - start


def forget() -> None:
    """Drop every tree's package from ``sys.modules``, so the next run
    imports its own copies."""
    for name in [name for name in sys.modules if name.split(".")[0] in [f"abstep_{label}" for label in LABELS]]:
        del sys.modules[name]


def interleave(trees: list[Tree], work, steps: int, warmup: int) -> None:
    """``work(tree, i)`` for i in range(warmup + steps), the trees in turn,
    the order flipped every i; each tree keeps its counted seconds."""
    for tree in trees:
        tree.times = []
    for i in range(warmup + steps):
        for tree in (trees if i % 2 == 0 else trees[::-1]):
            seconds = work(tree, i)
            if i >= warmup:
                tree.times.append(seconds)


def summary(trees: list[Tree], unit: str) -> list[str]:
    lines = []
    for tree in trees:
        q1, med, q3 = np.percentile(tree.times, [25, 50, 75]) * 1e3
        lines.append(f"{tree.label:<6} {tree.tree}: median {med:.2f} ms, quartiles {q1:.2f}-{q3:.2f} ms")
    parent, change = (np.asarray(tree.times) for tree in trees)
    lines.append(f"change/parent median {np.median(change) / np.median(parent):.3f}; "
                 f"change faster in {np.mean(change < parent):.0%} of {len(change)} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--variant", default="s2moe")
    parser.add_argument("--steps", type=int, default=100, help="counted steps (or eval batches per k)")
    parser.add_argument("--warmup", type=int, default=10, help="uncounted steps first")
    parser.add_argument("--eval", metavar="CKPT", help="time eval batches of this checkpoint instead")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not os.path.isfile(os.path.join(tree, "src", "s2moe", "__init__.py")):
            print(f"error: {tree} holds no src/s2moe", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="s2moe-abstep-") as work:
        sys.path.insert(0, work)
        try:
            trees = [Tree(label, os.path.abspath(tree), work) for label, tree in zip(LABELS, (args.parent, args.change))]
            needed = "window_nats" if args.eval else "_train_step"
            for tree in trees:
                if not hasattr(tree.train, needed):
                    print(f"error: {tree.tree} has no train.{needed}, the function abstep times", file=sys.stderr)
                    return 2
            if args.eval:
                for tree in trees:
                    tree.setup_eval(args.eval)
                medians = {}
                for k in (1, 2):
                    interleave(trees, lambda tree, i: tree.eval_batch(i, k), args.steps, args.warmup)
                    print(f"abstep: eval of {args.eval} at k={k}, {args.steps} batches after "
                          f"{args.warmup} warm-up, order flipped every batch")
                    print("\n".join(summary(trees, "batches")))
                    medians[k] = [np.median(tree.times) for tree in trees]
                for tree, k1, k2 in zip(trees, *medians.values()):
                    print(f"{tree.label:<6} {tree.tree}: k=1/k=2 median batch time {k1 / k2:.3f}")
            else:
                corpus = trees[0].pkg.make_synthetic_corpus(os.path.join(work, "corpus.txt"),
                                                         n_bytes=CORPUS_BYTES, seed=CORPUS_SEED)
                for tree in trees:
                    tree.setup_training(args.variant, corpus, os.path.join(work, tree.label))
                interleave(trees, Tree.train_step, args.steps, args.warmup)
                print(f"abstep: {args.variant} desk training, {args.steps} steps after "
                      f"{args.warmup} warm-up, order flipped every step")
                print("\n".join(summary(trees, "steps")))
        finally:
            sys.path.remove(work)
            forget()
    return 0


if __name__ == "__main__":
    sys.exit(main())
