"""Input generator: writes one workload's inputs, deterministic from its seed.

    python3 perfbench/inputs.py --workload NAME --seed N --work DIR

Every workload gets the ~1 MB synthetic corpus ``make_synthetic_corpus``
writes for the seed. eval-sweep also gets a checkpoint: a short desk s2moe
training run on that corpus, written where training writes checkpoints.
This runs in its own process, before the measured one starts.
"""

from __future__ import annotations

import argparse
import os
import sys

from s2moe import make_synthetic_corpus, train
from workload import (EVAL_CKPT_STEPS, WORKLOADS, corpus_path, eval_checkpoint_path,
                      train_config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    corpus = make_synthetic_corpus(corpus_path(args.work), seed=args.seed)
    if args.workload == "eval-sweep":
        out_dir = os.path.dirname(eval_checkpoint_path(args.work))
        result = train(train_config("s2moe", args.seed, corpus, out_dir, steps=EVAL_CKPT_STEPS))
        if result.final_checkpoint != eval_checkpoint_path(args.work):
            print(f"checkpoint written to {result.final_checkpoint}, "
                  f"expected {eval_checkpoint_path(args.work)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
