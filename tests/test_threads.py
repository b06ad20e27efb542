"""The process's own threads: BLAS is pinned to one thread at import, and
``in_parallel`` runs two parts at once, the second on one helper thread.

Results do not depend on ``OPENBLAS_NUM_THREADS`` or on whether the parts run
at once; an error in either part reaches the caller; a child forked after the
helper started, and the interpreter's exit, do not hang."""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import s2moe
from s2moe import tensor
from s2moe.experts import ExpertBank
from s2moe.model import LanguageModel, ModelConfig
from s2moe.stochastic import RngStream
from s2moe.tensor import Tape, Tensor, backward, causal_attention, expert_ffn, in_parallel, mul, tsum
from s2moe.train import metrics_equal

SRC = os.path.dirname(os.path.dirname(os.path.abspath(s2moe.__file__)))
RUNS = [(variant, precision) for variant in ("s2moe", "smoe") for precision in ("f64", "f32")]

# six desk steps per run, a checkpoint after steps 3 and 6, val BPC at steps 0 and 5
DESK_RUNS = """
import os, sys
from s2moe.config import preset
from s2moe.train import train

corpus, out = sys.argv[1:3]
for variant, precision in {runs!r}:
    cfg = preset("desk")
    for key, value in dict(variant=variant, precision=precision, steps=6, seed=3, eval_interval=6,
                           ckpt_interval=3, corpus=corpus,
                           out_dir=os.path.join(out, variant + "-" + precision)).items():
        setattr(cfg, key, value)
    train(cfg)
"""


def _env(**extra):
    return dict(os.environ, PYTHONPATH=SRC, **extra)


def test_training_does_not_depend_on_the_blas_thread_count(desk_corpus, tmp_path):
    """Short desk runs at 1 and at 2 BLAS threads, each in its own process at
    one output path (so the config echo in the checkpoints agrees): equal
    ``metrics.csv`` rows without ``wall_ms`` and equal checkpoint bytes. A
    two-thread GEMM sums a reduction over ~512 rows, as an s2moe expert's
    weight gradient is, in another order than a one-thread one."""
    run_at, outs = tmp_path / "run", {}
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-c", DESK_RUNS.format(runs=RUNS), desk_corpus, str(run_at)],
                       env=_env(OPENBLAS_NUM_THREADS=threads), check=True, timeout=900)
        outs[threads] = run_at.rename(tmp_path / f"threads-{threads}")
    for variant, precision in RUNS:
        a, b = (outs[threads] / f"{variant}-{precision}" for threads in ("1", "2"))
        assert metrics_equal(str(a / "metrics.csv"), str(b / "metrics.csv")), (variant, precision)
        files = sorted(p.name for p in a.iterdir() if p.name != "metrics.csv")
        assert files and files == sorted(p.name for p in b.iterdir() if p.name != "metrics.csv")
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (variant, precision, name)


def test_blas_is_pinned_to_one_thread_whatever_the_environment_asks():
    """Asked as perfbench asks it, in a process started at 2 BLAS threads."""
    code = """
import ctypes, os
import numpy as np
from s2moe import tensor
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
threads = None
for name in (n for n in os.listdir(libdir) if "openblas" in n) if os.path.isdir(libdir) else ():
    lib = ctypes.CDLL(os.path.join(libdir, name))
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if threads is None and hasattr(lib, symbol):
            threads = getattr(lib, symbol)()
print(tensor._blas_pinned, threads)
"""
    out = subprocess.run([sys.executable, "-c", code], env=_env(OPENBLAS_NUM_THREADS="2"),
                         capture_output=True, text=True, timeout=120, check=True).stdout.split()
    if out[0] != "True":
        pytest.skip("this numpy's BLAS could not be asked for its thread count")
    assert out[1] == "1"


def test_an_error_in_either_part_reaches_the_caller_and_the_helper_goes_on():
    def fail_in_helper():
        raise ValueError("from the second part")

    with pytest.raises(ValueError, match="from the second part"):
        in_parallel(lambda: 1, fail_in_helper)

    finished = []

    def slow_second():
        time.sleep(0.05)
        finished.append(True)

    with pytest.raises(KeyError):
        in_parallel(lambda: {}["missing"], slow_second)
    idents = in_parallel(threading.get_ident, threading.get_ident)
    assert in_parallel(lambda: 1, lambda: 2) == (1, 2)
    if tensor._helper:  # a helper runs where BLAS is pinned and two CPUs are usable
        assert finished == [True]  # the caller's error waited for the second part to end
        assert idents[0] == threading.get_ident() != idents[1]


def test_callers_on_several_threads_each_get_their_own_results():
    """More calling threads than cores, switching often: a part posted by one
    caller never runs for, or hands its result to, another."""
    errors, switch = [], sys.getswitchinterval()

    def caller(tid):
        try:
            for j in range(300):
                got = in_parallel(lambda: (tid, j, 0), lambda: (tid, j, 1))
                if got != ((tid, j, 0), (tid, j, 1)):
                    errors.append(got)
        except Exception as err:  # reported below
            errors.append(err)

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []


def _experts_step(seed: int = 0):
    """One expert_ffn forward and backward whose experts split into two groups."""
    rng = np.random.default_rng(seed)
    bank = ExpertBank(4, 8, 16, RngStream(seed), dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 16, 8)), requires_grad=True)
    gates = Tensor(rng.uniform(0.1, 1.0, (2, 16, 4)))
    indices = np.stack([rng.permutation(4)[:2] for _ in range(32)]).reshape(2, 16, 2)
    with Tape():
        out = expert_ffn(x, gates, indices, bank.w1, bank.b1, bank.w2, bank.b2)
        backward(tsum(mul(out, Tensor(rng.standard_normal(out.shape)))))
    return [out.data, x.grad] + [t.grad for t in bank.w1 + bank.b1 + bank.w2 + bank.b2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_forked_after_the_helper_started_runs_the_experts():
    in_parallel(lambda: None, lambda: None)  # the helper has started, where it can
    want = _experts_step()
    pid = os.fork()
    if pid == 0:  # the child: no pytest teardown, only an exit code
        code = 1
        try:
            code = 0 if all(np.array_equal(a, b) for a, b in zip(_experts_step(), want)) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in expert_ffn")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_process_that_used_the_helper_exits_at_once():
    code = ("import time; from s2moe.tensor import in_parallel; "
            "in_parallel(lambda: None, lambda: time.sleep(0.01)); print('done')")
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stdout.strip() == "done"
    assert time.monotonic() - start < 30


def test_split_ops_give_the_same_bits_one_part_after_the_other(monkeypatch):
    """The experts, attention and a model step's forward and gradients, with
    the parts at once and with them run one after the other (as where BLAS
    cannot be pinned or one CPU is usable)."""

    def everything():
        rng = np.random.default_rng(4)
        q, k, v = (Tensor(rng.standard_normal((3, 40, 8)), requires_grad=True) for _ in range(3))
        with Tape():
            att = causal_attention(q, k, v, 2)
            backward(tsum(mul(att, Tensor(rng.standard_normal(att.shape)))))
        cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_exp=32, n_experts=4, seq_len=8,
                          variant="s2moe", precision="f64", seed=2)
        model = LanguageModel(cfg)
        with Tape():
            logits, _ = model.lm_forward(rng.integers(0, cfg.vocab_size, (3, 8)), "train", rng=RngStream(1), k=2)
            backward(tsum(logits))
        return ([att.data, q.grad, k.grad, v.grad, logits.data] + _experts_step(1)
                + [p.grad for _, p in model.parameters() if p.grad is not None])

    parallel = everything()
    monkeypatch.setattr(tensor, "_helper", False)
    serial = everything()
    assert len(parallel) == len(serial)
    for a, b in zip(parallel, serial):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
