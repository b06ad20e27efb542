"""s2moe benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs from the seed in one process (inputs.py), then
measures the workload in a second, single process (workload.py), which
checks the program's outputs. The last line of standard output is one JSON
object: correct, attempted, failed, and the end-to-end metrics (trace 0) or
the per-layer metrics (trace 1). The line before it holds the run's facts:
machine, sample counts, failures. Scratch files go to perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-s2moe", "train-smoe", "eval-sweep")
DEADLINE_S = 170   # a run must end within 180 s


def child_env() -> dict:
    """PYTHONPATH onto the checkout's source; BLAS threads at most nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        asked = env.get(var, "")
        env[var] = str(min(int(asked), nproc) if asked.isdigit() and int(asked) > 0 else nproc)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "s2moe", "__init__.py")):
        print(f"error: no s2moe source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    flags = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    steps = [
        [sys.executable, os.path.join(HERE, "inputs.py"), *flags],
        [sys.executable, os.path.join(HERE, "workload.py"), *flags,
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
    ]
    for cmd in steps:
        try:
            # stdout of the children goes to stderr: the last stdout line is the result
            done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:   # run() has killed and reaped the child
            print(f"error: {os.path.basename(cmd[1])} ran past {DEADLINE_S} s", file=sys.stderr)
            return 3
        if done.returncode != 0:
            print(f"error: {os.path.basename(cmd[1])} exited with {done.returncode}", file=sys.stderr)
            return 1

    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    for name in os.listdir(work):   # checkpoints are the bulk of the scratch space
        if name in ("run", "ckpt-source"):
            shutil.rmtree(os.path.join(work, name))
    print(json.dumps(result["info"]))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
