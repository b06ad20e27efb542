"""The measured process of one benchmark workload.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR

Reads the inputs ``perfbench/inputs.py`` wrote into DIR (the corpus and, for
eval-sweep, a checkpoint), runs the workload, checks its outputs and writes
``DIR/result.json``. ``perfbench/run.py`` starts both processes; run that.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics from a traced repeat of the
work, next to an untraced repeat (tracing overhead) and a traced repeat with
the NaN guard off (the guard's share of step time).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from s2moe.config import preset  # noqa: E402
from s2moe.diagnostics import flops_per_token  # noqa: E402

# ``import s2moe.train`` would yield the re-exported function, not the module
train_mod = importlib.import_module("s2moe.train")
model_mod = importlib.import_module("s2moe.model")
moe_mod = importlib.import_module("s2moe.moe")
experts_mod = importlib.import_module("s2moe.experts")
tensor_mod = importlib.import_module("s2moe.tensor")

IMPORT_S = time.perf_counter() - T_START

from spans import Bindings, SpanRecorder, clock  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train-s2moe", "train-smoe", "eval-sweep")

STEPS = 20              # optimizer steps per training episode
EVAL_INTERVAL = 5       # metrics rows at steps 0, 5, 10, 15 and 19
# Checkpoints after steps 4, 8, 12, 16 and 20, then ckpt-final: with a
# quarter of the steps writing one, the tail percentile falls among them.
CKPT_INTERVAL = 4
EVAL_CKPT_STEPS = 10    # training steps behind the eval-sweep checkpoint
# The first ~40 training steps of a process pay the heap's growth: tape
# garbage lives until a full collection, and fresh pages fault in. A long
# training run pays that once, so the warm-up episodes' steps stay out of
# the step metrics; their setup, memory and checks count.
WARMUP_EPISODES = 2
TAIL_BEYOND = 10        # samples the tail percentile leaves above it
# Nominal seconds, on a 2-core x86 box, of one measured training round (an
# episode, then a validation sweep of its checkpoint) and of one eval sweep.
# The work in a run is fixed from --seconds with these, never from measured
# speed, so two commits given the same flags do the same work.
ROUND_S = 10.0
SWEEP_S = 6.0


def corpus_path(work: str) -> str:
    return os.path.join(work, "corpus.txt")


def eval_checkpoint_path(work: str) -> str:
    return os.path.join(work, "ckpt-source", "ckpt-final.bin")


def train_config(variant: str, seed: int, corpus: str, out_dir: str, steps: int = STEPS):
    """The desk preset (2 layers, d=128, 8 experts, T=128, B=8) as the benchmark trains it."""
    cfg = preset("desk")
    cfg.variant, cfg.seed, cfg.corpus, cfg.steps, cfg.out_dir = variant, seed, corpus, steps, out_dir
    cfg.eval_interval, cfg.ckpt_interval = EVAL_INTERVAL, CKPT_INTERVAL
    return cfg


def repeats(workload: str, seconds: int) -> int:
    """Measured training rounds, or eval sweeps, in an untraced run."""
    return max(2, int(seconds // (SWEEP_S if workload == "eval-sweep" else ROUND_S)))


# ---------------------------------------------------------------------------
# the probe: present in every run, traced or not


class Probe:
    """Step clock, model capture and routed-pair count.

    Three bindings, each hit at most once per forward pass, so an untraced
    run pays microseconds per step for them. ``make_batch`` marks the start
    of every training step and eval batch.
    """

    def __init__(self, bindings: Bindings):
        self.stamps: list[float] = []
        self.batch_tokens: list[int] = []
        self.models: list = []
        self.forwards: list[tuple[str, int, int]] = []   # (mode, k, tokens)
        self.routed_pairs = 0
        bindings.wrap(train_mod, "make_batch", self._clock)
        bindings.wrap(train_mod, "build_model", self._capture)
        bindings.wrap(model_mod.LanguageModel, "lm_forward", self._count)

    def reset(self) -> None:
        self.stamps.clear()
        self.batch_tokens.clear()
        self.models.clear()
        self.forwards.clear()
        self.routed_pairs = 0

    def invocations(self) -> int:
        return sum(blk.moe.experts.invocations for m in self.models for blk in m.blocks)

    def _clock(self, original):
        stamps, batch_tokens = self.stamps, self.batch_tokens

        def make_batch(tokens, seq_len, indices):
            stamps.append(clock())
            batch_tokens.append(len(indices) * seq_len)
            return original(tokens, seq_len, indices)
        return make_batch

    def _capture(self, original):
        def build_model(*args, **kwargs):
            model = original(*args, **kwargs)
            self.models.append(model)
            return model
        return build_model

    def _count(self, original):
        def lm_forward(model, tokens, mode="train", *args, **kwargs):
            logits, auxes = original(model, tokens, mode, *args, **kwargs)
            for aux in auxes:
                self.routed_pairs += aux.decision.indices.size
                if aux.decision_noisy is not None:
                    self.routed_pairs += aux.decision_noisy.indices.size
            self.forwards.append((mode, auxes[0].decision.k_used, int(np.asarray(tokens).size)))
            return logits, auxes
        return lm_forward


@dataclass
class Unit:
    """One training episode or one eval pass, as the probe saw it."""

    setup_s: float                 # call to first step or batch
    step_s: list[float]            # per training step, or per eval batch
    batch_tokens: list[int]        # tokens in each of those steps or batches
    work_s: float                  # first step or batch to return
    tokens: int
    stamps: list[float]
    end: float
    routed_pairs: int
    invocations: int
    forwards: list
    model_cfg: object
    rows: list = field(default_factory=list)   # training metrics rows
    metrics_path: str = ""
    final_checkpoint: str = ""
    k: int = 0
    bpc: float = float("nan")


def run_episode(cfg, probe: Probe) -> Unit:
    """One closed-loop training run of cfg.steps steps through ``train``."""
    probe.reset()
    t0 = clock()
    result = train_mod.train(cfg)
    t1 = clock()
    stamps = list(probe.stamps)
    step_s = [b - a for a, b in zip(stamps, stamps[1:] + [t1])]
    return Unit(setup_s=stamps[0] - t0, step_s=step_s, batch_tokens=list(probe.batch_tokens),
                work_s=t1 - stamps[0],
                tokens=sum(probe.batch_tokens), stamps=stamps, end=t1,
                routed_pairs=probe.routed_pairs, invocations=probe.invocations(),
                forwards=list(probe.forwards), model_cfg=probe.models[0].cfg,
                rows=result.rows, metrics_path=result.metrics_path,
                final_checkpoint=result.final_checkpoint)


def run_eval_pass(ckpt: str, k: int, collapse: bool, probe: Probe) -> Unit:
    """``s2moe eval --split val`` at one k: load, teacher-forced eval, optional collapse report."""
    probe.reset()
    t0 = clock()
    result, _ = train_mod.evaluate_checkpoint(ckpt, k=k, split="val", with_collapse=collapse)
    t1 = clock()
    stamps = list(probe.stamps)
    n = len(stamps) - 1 if collapse else len(stamps)   # the collapse report draws one more batch
    ends = stamps[1:n] + [stamps[n] if collapse else t1]
    return Unit(setup_s=stamps[0] - t0, step_s=[b - a for a, b in zip(stamps[:n], ends)],
                batch_tokens=probe.batch_tokens[:n],
                work_s=t1 - stamps[0], tokens=result.n_tokens, stamps=stamps, end=t1,
                routed_pairs=probe.routed_pairs, invocations=probe.invocations(),
                forwards=list(probe.forwards), model_cfg=probe.models[0].cfg,
                k=k, bpc=result.bpc)


def run_sweep(ckpt: str, probe: Probe) -> list[Unit]:
    return [run_eval_pass(ckpt, 1, False, probe), run_eval_pass(ckpt, 2, True, probe)]


# ---------------------------------------------------------------------------
# correctness


class Ledger:
    """Steps, batches and checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def work(self, n: int, failed: bool) -> None:
        """n steps or batches; a unit that raised counts all of them failed."""
        self.attempted += n
        if failed:
            self.failed += n

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok


def batches(sweep: list[Unit] | None) -> int:
    """Eval batches in a sweep; a sweep that raised counts as one."""
    return 1 if sweep is None else sum(len(u.step_s) for u in sweep)


def check_episode(unit: Unit, ledger: Ledger, reference: str, tag: str) -> None:
    """Finite losses, learning, exact dispatch, and bitwise repeatability."""
    finite = all(math.isfinite(v) for r in unit.rows
                 for v in (r.task_nats, r.bpc, r.balance, r.uncertainty, r.total))
    ledger.check(f"{tag}: losses finite", finite)
    ledger.check(f"{tag}: final train bpc below step 0",
                 unit.rows[0].step == 0 and unit.rows[-1].bpc < unit.rows[0].bpc)
    ledger.check(f"{tag}: expert pairs evaluated == routed pairs",
                 unit.invocations == unit.routed_pairs > 0)
    if os.path.exists(reference):
        ledger.check(f"{tag}: metrics rows equal the first episode's",
                     train_mod.metrics_equal(reference, unit.metrics_path))
    else:
        shutil.copyfile(unit.metrics_path, reference)


def check_sweep(sweep: list[Unit], ledger: Ledger, reference: list[Unit] | None, tag: str) -> None:
    for unit in sweep:
        ledger.check(f"{tag} k={unit.k}: eval bpc finite", math.isfinite(unit.bpc))
        ledger.check(f"{tag} k={unit.k}: expert pairs evaluated == routed pairs",
                     unit.invocations == unit.routed_pairs > 0)
    if reference is not None:
        ledger.check(f"{tag}: eval bpc equals the first sweep's",
                     [u.bpc for u in sweep] == [u.bpc for u in reference])


def guarded(ledger: Ledger, what: str, fn):
    """Run one episode or sweep; None when it raised (the caller counts it failed)."""
    try:
        return fn()
    except Exception:  # the run goes on; the failure is counted, never dropped
        traceback.print_exc(file=sys.stderr)
        ledger.failures.append(f"{what}: raised")
        return None


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    idx = len(ordered) - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def batch_throughput(passes: list[Unit]) -> list[float]:
    """Tokens per second of each eval batch."""
    return [n / t for u in passes for n, t in zip(u.batch_tokens, u.step_s)]


def end_to_end(workload: str, episodes: list[Unit], sweeps: list[list[Unit]],
               setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics and the facts that go with them.

    On the train workloads a step is a training step and the main loop is a
    measured training episode; on eval-sweep (no ``episodes``) a step is an
    eval batch at k=2 and the main loop is a sweep. Eval metrics come from
    the sweeps; ``setups`` are the seconds from each call to its first step.
    """
    passes = [u for sweep in sweeps for u in sweep]
    by_k = {k: [u for u in passes if u.k == k] for k in (1, 2)}
    if episodes:
        steps = [s for u in episodes for s in u.step_s]
        throughput = [u.tokens / u.work_s for u in episodes]
    else:
        steps = [s for u in by_k[2] for s in u.step_s]
        throughput = [sum(u.tokens for u in sweep) / sum(u.work_s for u in sweep) for sweep in sweeps]
    if episodes:
        tail_s, tail_pct = tail(steps)
    else:   # per pass, then the median: a slow spell of the machine moves one pass
        tails = [tail(u.step_s) for u in by_k[2]]
        tail_s, tail_pct = statistics.median(t for t, _ in tails), tails[0][1]
    metrics = {
        "setup_s": IMPORT_S + statistics.median(setups),
        "tokens_per_s": statistics.median(throughput),
        "step_s_p50": statistics.median(steps),
        "step_s_tail": tail_s,
        "eval_tokens_per_s_k1": statistics.median(batch_throughput(by_k[1])),
        "eval_tokens_per_s_k2": statistics.median(batch_throughput(by_k[2])),
        "val_bpc_k1": by_k[1][0].bpc,
        "val_bpc_k2": by_k[2][0].bpc,
        "peak_rss_mb": peak_rss_mb(),
    }
    mc = passes[0].model_cfg
    facts = {
        "step": "training step" if episodes else "eval batch at k=2",
        "step_samples": len(steps),
        "step_s_tail_percentile": round(tail_pct, 2),
        "step_s_tail_over": "all steps" if episodes else "each k=2 pass, median over passes",
        "import_s": IMPORT_S,
        "k_scaling": {"eval_time_k1_over_k2": metrics["eval_tokens_per_s_k2"] / metrics["eval_tokens_per_s_k1"],
                      "predicted_macs_k1_over_k2": flops_per_token(mc, k=1).total / flops_per_token(mc, k=2).total},
    }
    if episodes:
        facts["step0_train_bpc"] = episodes[0].rows[0].bpc
        facts["final_train_bpc"] = episodes[0].rows[-1].bpc
    return metrics, facts


LAYER_SPANS = [
    # (owner, attribute, span name); owners are the bindings callers use
    (train_mod, "backward", "tensor.backward"),
    (model_mod.LanguageModel, "lm_forward", "model.lm_forward"),
    (model_mod.Attention, "forward", "model.attention"),
    (moe_mod, "route", "routing.route"),
    (moe_mod, "moe_combine", "experts.combine"),
    (experts_mod.ExpertBank, "apply", "experts.apply"),
    (moe_mod, "compute_batch_stats", "stochastic.stats"),
    (moe_mod, "perturb", "stochastic.perturb"),
    (moe_mod, "blend_gate", "stochastic.blend"),
    (moe_mod.S2MoeLayer, "forward", "moe.s2moe_forward"),
    (moe_mod.SmoeLayer, "forward", "moe.smoe_forward"),
    (train_mod, "task_loss", "losses.task"),
    (train_mod, "balance_loss", "losses.balance"),
    (train_mod, "uncertainty_loss", "losses.uncertainty"),
    (train_mod, "clip_global_norm", "train.clip"),
    (train_mod.Adam, "step", "train.adam"),
    (train_mod, "make_batch", "data.batch"),
    (train_mod, "ingest_corpus", "data.ingest"),
    (train_mod, "save_checkpoint", "checkpoint.save"),
    (train_mod, "load_checkpoint", "checkpoint.load"),
    (train_mod, "collapse_metrics", "diagnostics.collapse"),
]


def _count_tape(rec, args):
    rec.counts["tensor.tape_records"] += len(args[0].tape)


def _count_bytes(rec, args):
    rec.counts["checkpoint.bytes"] += os.path.getsize(args[0])


_AFTER = {"tensor.backward": _count_tape, "checkpoint.save": _count_bytes}


def install_tracer(recorder: SpanRecorder, bindings: Bindings) -> None:
    for owner, attr, name in LAYER_SPANS:
        bindings.wrap(owner, attr, recorder.span(name, _AFTER.get(name)))


# After a warm-up, untraced, traced, and traced with the NaN guard off, in
# mirrored order: step time drifts over a process (the heap grows until a
# full collection frees the tape cycles), and the mirror cancels a steady
# drift out of both comparisons.
TRACE_ORDER = ("warm-up", "warm-up", "untraced", "traced", "guard-off", "guard-off", "traced", "untraced")


def trace_run(workload: str, work: str, ledger: Ledger, run, steps_of):
    """Per-layer metrics; ``run(tag)`` does one repeat and returns its units."""
    recorder = SpanRecorder()
    groups: dict[str, list[Unit]] = {kind: [] for kind in TRACE_ORDER}
    restored, complete = True, True
    for i, kind in enumerate(TRACE_ORDER):
        tag = f"{kind} repeat {i}"
        if kind in ("warm-up", "untraced"):
            units = run(tag)
        else:
            bindings = Bindings()
            install_tracer(recorder if kind == "traced" else SpanRecorder(), bindings)
            tensor_mod.set_nan_guard(kind == "traced")
            try:
                units = run(tag)
            finally:
                tensor_mod.set_nan_guard(True)
                restored = bindings.restore() and restored
        complete = complete and units is not None
        groups[kind] += units or []
    ledger.check("traced bindings restored", restored)
    if not complete:
        return None
    recorder.write(os.path.join(work, "spans.jsonl"))
    layers = per_layer(workload, groups["traced"], recorder, steps_of(groups["untraced"]),
                       steps_of(groups["traced"]), steps_of(groups["guard-off"]))
    return layers, {"trace_spans": len(recorder.spans)}


def per_layer(workload: str, units: list[Unit], rec: SpanRecorder,
              untraced_steps: list[float], traced_steps: list[float],
              guard_off_steps: list[float]) -> dict:
    """Per-layer metrics from the traced units; seconds are per step.

    A step is one forward pass: a training step, an eval batch, or the
    collapse report's forward.
    """
    if workload != "eval-sweep":
        rec.add_enclosing("train.step", [(s, e) for u in units
                                         for s, e in zip(u.stamps, u.stamps[1:] + [u.end])])
    tot = rec.totals()

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def seconds(name):
        return tot.get(name, {}).get("total_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    n_fwd = sum(len(u.forwards) for u in units)
    mc = units[0].model_cfg
    macs = {}
    for u in units:
        for mode, k, tokens in u.forwards:
            for item, per_token in flops_per_token(mc, k=k, mode=mode).items.items():
                macs[item] = macs.get(item, 0) + per_token * tokens
    per_step = {
        "tensor.backward_s": "tensor.backward",
        "model.lm_forward_s": "model.lm_forward",
        "model.attention_s": "model.attention",
        "routing.route_s": "routing.route",
        "experts.combine_s": "experts.combine",
        "stochastic.stats_s": "stochastic.stats",
        "stochastic.perturb_s": "stochastic.perturb",
        "stochastic.blend_s": "stochastic.blend",
        "moe.s2moe_forward_s": "moe.s2moe_forward",
        "moe.smoe_forward_s": "moe.smoe_forward",
        "losses.task_s": "losses.task",
        "losses.balance_s": "losses.balance",
        "losses.uncertainty_s": "losses.uncertainty",
        "train.clip_s": "train.clip",
        "train.adam_s": "train.adam",
        "data.batch_s": "data.batch",
    }
    out = {metric: ratio(seconds(span), n_fwd) for metric, span in per_step.items()}
    per_call = {
        "data.ingest_s": "data.ingest",
        "checkpoint.save_s": "checkpoint.save",
        "checkpoint.load_s": "checkpoint.load",
        "diagnostics.collapse_s": "diagnostics.collapse",
    }
    out.update({metric: ratio(seconds(span), calls(span)) for metric, span in per_call.items()})
    on, off = statistics.median(traced_steps), statistics.median(guard_off_steps)
    out.update({
        "tensor.tape_records": ratio(rec.counts["tensor.tape_records"], calls("tensor.backward")),
        "tensor.guard_share": 1.0 - off / on,
        "routing.route_calls": ratio(calls("routing.route"), n_fwd * mc.n_layers),
        "experts.apply_calls": ratio(tot.get("experts.combine", {}).get("children", {}).get("experts.apply", 0),
                                     n_fwd),
        "experts.pair_ratio": ratio(sum(u.invocations for u in units), sum(u.routed_pairs for u in units)),
        "experts.mac_per_s": ratio(macs["experts"], seconds("experts.combine")),
        "train.step_self_s": ratio(tot.get("train.step", {}).get("self_s", 0.0), n_fwd),
        "checkpoint.bytes": ratio(rec.counts["checkpoint.bytes"], calls("checkpoint.save")),
        "diagnostics.attention_mac_per_s": ratio(macs["attention_projections"] + macs["attention_mix"],
                                                 seconds("model.attention")),
        "diagnostics.router_mac_per_s": ratio(macs["router"], seconds("routing.route")),
        "diagnostics.blend_gate_mac_per_s": ratio(macs["blend_gate"], seconds("stochastic.blend")),
        "trace.overhead_share": on / statistics.median(untraced_steps) - 1.0,
    })
    return out


# ---------------------------------------------------------------------------
# workloads


def measure_train(args, probe: Probe, ledger: Ledger):
    variant = "s2moe" if args.workload == "train-s2moe" else "smoe"
    cfg = train_config(variant, args.seed, corpus_path(args.work), os.path.join(args.work, "run"))
    reference = os.path.join(args.work, "metrics-first.csv")

    def episode(tag):
        unit = guarded(ledger, tag, lambda: run_episode(cfg, probe))
        ledger.work(cfg.steps, unit is None)
        if unit is not None:
            check_episode(unit, ledger, reference, tag)
        return unit

    if not args.trace:
        # sweeps interleave with the episodes, so both sample the whole run
        episodes = [episode(f"warm-up episode {i}") for i in range(WARMUP_EPISODES)]
        measured, sweeps = [], []
        for i in range(repeats(args.workload, args.seconds)):
            unit = episode(f"episode {i}")
            episodes.append(unit)
            if unit is None:
                continue
            measured.append(unit)
            sweep = guarded(ledger, f"validation sweep {i}", lambda: run_sweep(unit.final_checkpoint, probe))
            ledger.work(batches(sweep), sweep is None)
            if sweep is not None:
                check_sweep(sweep, ledger, sweeps[0] if sweeps else None, f"validation sweep {i}")
                sweeps.append(sweep)
        if not measured or not sweeps:
            return None
        setups = [u.setup_s for u in episodes if u is not None]
        return end_to_end(args.workload, measured, sweeps, setups)

    def repeat(tag):
        unit = episode(tag)
        return None if unit is None else [unit]

    return trace_run(args.workload, args.work, ledger, repeat,
                     lambda units: [s for u in units for s in u.step_s])


def measure_eval(args, probe: Probe, ledger: Ledger):
    ckpt = eval_checkpoint_path(args.work)
    first: list[list[Unit]] = []

    def sweep(tag):
        units = guarded(ledger, tag, lambda: run_sweep(ckpt, probe))
        ledger.work(batches(units), units is None)
        if units is None:
            return None
        check_sweep(units, ledger, first[0] if first else None, tag)
        if not first:
            first.append(units)
        return units

    if not args.trace:
        sweeps = [s for s in (sweep(f"sweep {i}") for i in range(repeats(args.workload, args.seconds)))
                  if s is not None]
        if not sweeps:
            return None
        return end_to_end(args.workload, [], sweeps, [u.setup_s for sweep in sweeps for u in sweep])

    return trace_run(args.workload, args.work, ledger, sweep,
                     lambda units: [s for u in units if u.k == 2 for s in u.step_s])


# ---------------------------------------------------------------------------
# machine facts


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its config
        blas = {}
    threads = blas_threads()
    if threads is None:
        threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ledger = Ledger()
    info = machine()
    ledger.check("BLAS threads within nproc", info["blas_threads"] is not None
                 and info["blas_threads"] <= info["nproc"])
    probe_bindings = Bindings()
    probe = Probe(probe_bindings)
    measure = measure_eval if args.workload == "eval-sweep" else measure_train
    try:
        outcome = measure(args, probe, ledger)
    finally:
        ledger.check("probe bindings restored", probe_bindings.restore())
    if outcome is None:
        print(f"no unit of work completed: {ledger.failures}", file=sys.stderr)
        return 1
    values, facts = outcome
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "info": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace,
                 "repeats": len(TRACE_ORDER) if args.trace else repeats(args.workload, args.seconds),
                 "failed_share": ledger.failed / ledger.attempted, "failures": ledger.failures,
                 "machine": info, **facts},
    }
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
