"""Training loop, optimizer, evaluation, and metrics plumbing.

All stochasticity is counter-based: batch indices and forward-pass draws are
pure functions of (seed, step), so a run resumed from a checkpoint continues
bit-for-bit where the uninterrupted run would have been (at matching
precision).
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, apply_tensors, load_checkpoint, replacing, save_checkpoint
from .config import RunConfig, parse_config_text
from .data import Corpus, ingest_corpus, make_batch, pair_count
from .diagnostics import CollapseReport, collapse_metrics, gini, routing_stats
from .losses import PooledPair, balance_loss, perplexity, task_loss, total_loss, uncertainty_loss
from .model import LanguageModel
from .routing import dropout_schedule_k, stablemoe_update
from .stochastic import RngStream
from .tensor import NonFiniteError, Tape, Tensor, backward, set_nan_guard

# stream ids under (seed << 8)
_STREAM_BATCH = 3
_STREAM_FORWARD = 4
_FORWARD_STRIDE = 1 << 20


class TrainAbort(RuntimeError):
    """Training stopped on a non-finite loss or gradient; prior checkpoints are retained."""


@dataclass
class MetricsRow:
    step: int
    task_nats: float
    bpc: float
    balance: float
    uncertainty: float
    total: float
    router_entropy: float
    expert_load_gini: float
    k: int
    wall_ms: float

    def to_line(self) -> str:
        """One column per field, in declaration order; floats as repr, so they round-trip."""
        return ",".join(str(getattr(self, f.name)) if f.type == "int" else repr(getattr(self, f.name))
                        for f in dataclasses.fields(self))

    @classmethod
    def from_line(cls, line: str) -> "MetricsRow":
        parts = line.strip().split(",")
        columns = dataclasses.fields(cls)
        if len(parts) != len(columns):
            raise ValueError(f"metrics row has {len(parts)} fields, want {len(columns)}: '{line}'")
        return cls(*(int(p) if f.type == "int" else float(p) for f, p in zip(columns, parts)))


METRICS_HEADER = ",".join(f.name for f in dataclasses.fields(MetricsRow))


def _least_step(digits: str, above: int) -> int:
    """The least step above ``above`` whose decimal form starts with ``digits``,
    the leading digits of a row cut inside its step field; ``int(digits)``
    when no step can start with them."""
    low = int(digits)
    if not re.fullmatch(r"[1-9][0-9]*", digits):  # only step 0 is written with a leading 0
        return low
    high = low + 1
    while high <= above + 1:  # no step in [low, high) is above ``above``: take one more digit
        low, high = low * 10, high * 10
    return max(low, above + 1)


def parse_metrics(path: str, before: int | None = None) -> list[MetricsRow]:
    """The file's rows; with ``before``, those whose leading step field is below
    it, the others dropped unparsed, so a row cut short at or past it is no error.

    A last line with no comma was cut inside its step field: it is dropped
    when every step it could be (above the row before it, starting with its
    digits) is at or past ``before``, and refused otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"metrics file '{path}' missing header")
    rows = lines[1:]
    if before is not None:
        steps = [int(ln.split(",", 1)[0]) for ln in rows]
        if rows and "," not in rows[-1]:
            steps[-1] = _least_step(rows[-1].strip(), steps[-2] if len(rows) > 1 else -1)
        rows = [ln for ln, step in zip(rows, steps) if step < before]
    return [MetricsRow.from_line(ln) for ln in rows]


def metrics_equal(path_a: str, path_b: str) -> bool:
    """Bitwise comparison of two metrics files, the wall_ms column excluded."""
    a, b = parse_metrics(path_a), parse_metrics(path_b)
    return len(a) == len(b) and all(ra.to_line().rsplit(",", 1)[0] == rb.to_line().rsplit(",", 1)[0]
                                    for ra, rb in zip(a, b))


class Adam:
    """Adam over named parameters; frozen and gradient-free tensors are skipped.
    Its moments are named tensors, saved and restored with the parameters.

    With ``init`` off the moments are read-only placeholders of their shape
    and dtype, for a resume that sets them next (``apply_tensors``)."""

    def __init__(self, named_params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, init: bool = True):
        self.named = list(named_params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        moment = np.zeros_like if init else (lambda a: np.broadcast_to(np.zeros((), a.dtype), a.shape))
        self.m = [Tensor(moment(t.data)) for _, t in self.named]
        self.v = [Tensor(moment(t.data)) for _, t in self.named]
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None

    def _buffers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per parameter, two scratch arrays of its shape and dtype: views
        into two flat buffers per dtype that this optimizer owns and reuses
        every step. A 0-d parameter gets 0-d arrays, which ``out=`` takes; a
        ufunc on 0-d inputs returns a numpy scalar, which it does not."""
        if self._scratch is None:
            sizes = {}
            for _, p in self.named:
                sizes[p.dtype] = max(sizes.get(p.dtype, 0), p.size)
            flat = {dtype: np.empty((2, size), dtype=dtype) for dtype, size in sizes.items()}
            self._scratch = [tuple(flat[p.dtype][i, :p.size].reshape(p.shape) for i in range(2))
                             for _, p in self.named]
        return self._scratch

    def step(self, t: int) -> None:
        """``p - lr * (m / c1) / (sqrt(v / c2) + eps)`` after the moment
        updates, every product formed in the scratch buffers, rounding as
        that expression does; parameters and moments are updated in place."""
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for (_, p), m, v, (tmp, step) in zip(self.named, self.m, self.v, self._buffers()):
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            m.data *= self.beta1
            m.data += np.multiply(g, 1.0 - self.beta1, out=tmp)
            v.data *= self.beta2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - self.beta2
            v.data += tmp
            np.divide(v.data, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m.data, c1, out=step)
            step *= self.lr
            step /= tmp
            p.data -= step

    def state(self) -> list[tuple[str, Tensor]]:
        """``adam.m.<name>`` then ``adam.v.<name>`` for each parameter, in order."""
        return [pair for (name, _), m, v in zip(self.named, self.m, self.v)
                for pair in ((f"adam.m.{name}", m), (f"adam.v.{name}", v))]


def clip_global_norm(named_params, max_norm: float) -> float:
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad = p.grad * scale  # a Python float keeps the gradient's dtype
    return norm


@dataclass
class TrainResult:
    final_checkpoint: str
    metrics_path: str
    rows: list[MetricsRow]
    corpus: Corpus


def _checked(work, faults):
    """``work()`` with the per-op NaN guard off, checked once at the end.

    ``faults(result)`` names what in the result is non-finite ("" when
    nothing is). Every draw in ``work`` is a pure function of its inputs, so
    on a fault it replays exactly with the guard on, and the first op to
    produce a non-finite value raises ``NonFiniteError`` with its name and
    tape position. When every op of the replay is finite, the error names
    what ``faults`` finds in the replayed result (a gradient, say). The
    caller's guard setting returns either way.
    """
    saved = set_nan_guard(False)
    try:
        result = work()
        if not faults(result):
            return result
        set_nan_guard(True)
        result = work()
    finally:
        set_nan_guard(saved)
    raise NonFiniteError(faults(result) or "non-finite result; its replay under the NaN guard was finite")


def _step_losses(model: LanguageModel, cfg: RunConfig, x, y, rng, k):
    logits, auxes = model.lm_forward(x, "train", rng=rng, k=k)
    nats, bpc, ppl = task_loss(logits, y)
    n_layers = len(auxes)
    bal = None
    for aux in auxes:
        term = balance_loss(aux.decision)
        bal = term if bal is None else bal + term
    bal = bal * (1.0 / n_layers)
    unc = None
    if cfg.variant == "s2moe":
        for aux in auxes:
            pair = PooledPair(aux.pooled_clean, aux.pooled_noisy, tau=cfg.tau_u)
            term = uncertainty_loss(pair)
            unc = term if unc is None else unc + term
        unc = unc * (1.0 / n_layers)
    total = total_loss(nats, bal, unc, cfg.alpha, cfg.beta)
    return logits, auxes, nats, bal, unc, total


def _step(model: LanguageModel, cfg: RunConfig, x, y, k: int, step: int):
    """One step's forward, backward and gradient clip; the forward's draws
    start over from (seed, step), so a replay repeats them."""
    rng = RngStream((cfg.seed << 8) + _STREAM_FORWARD, counter=step * _FORWARD_STRIDE)
    model.zero_grad()  # no forward reads a gradient: free the last step's before this one allocates
    with Tape():
        auxes, nats, bal, unc, total = _step_losses(model, cfg, x, y, rng, k)[1:]  # no logits held through backward
        backward(total)
    return auxes, nats, bal, unc, total, clip_global_norm(model.parameters(), cfg.grad_clip)


def _step_faults(model: LanguageModel, result) -> str:
    """The non-finite losses of a step, or else the parameters behind a
    non-finite gradient norm; "" for a finite step."""
    _, nats, bal, unc, total, norm = result
    losses = {"task": nats, "balance": bal, "uncertainty": unc, "total": total}
    bad = [name for name, t in losses.items() if t is not None and not math.isfinite(t.item())]
    if bad:
        return "non-finite loss: " + ", ".join(bad)
    if math.isfinite(norm):
        return ""
    grads = [name for name, p in model.parameters() if p.grad is not None and not np.isfinite(p.grad).all()]
    return f"non-finite gradient in {', '.join(grads)}" if grads else f"gradient norm {norm}"


def _train_step(model: LanguageModel, adam: Adam, cfg: RunConfig, tokens: np.ndarray, pairs: int, step: int):
    """One step as ``train`` takes it: the StableMoE policy, k, the batch, the checked forward,
    backward and clip (``NonFiniteError`` before Adam), and Adam; k, the auxes and losses."""
    for blk in model.blocks:
        stablemoe_update(blk.moe.router, step)
    k = dropout_schedule_k(step, cfg.steps, cfg.n_experts) if cfg.variant == "smoe-dropout" else cfg.k_train
    idx = RngStream((cfg.seed << 8) + _STREAM_BATCH, counter=step).integers(pairs, cfg.batch_size)
    x, y = make_batch(tokens, cfg.seq_len, idx)
    auxes, nats, bal, unc, total, _ = _checked(lambda: _step(model, cfg, x, y, k, step),
                                               lambda result: _step_faults(model, result))
    adam.step(step + 1)
    return k, auxes, nats, bal, unc, total


def _save_state(path: str, cfg: RunConfig, model: LanguageModel, adam: Adam, step: int) -> None:
    tensors = [(name, t.data) for name, t in model.parameters() + adam.state()]
    save_checkpoint(path, Checkpoint(config_text=cfg.to_text(), step=step, tensors=tensors))


def build_model(cfg: RunConfig, corpus: Corpus, init: bool = True) -> LanguageModel:
    """The run's model over the corpus vocabulary; with ``init`` off it draws
    nothing, for a caller that sets every parameter from a checkpoint."""
    cfg.vocab_size = corpus.vocab_size
    return LanguageModel(cfg.model_config(), init)


# fields a resume may change: where the run writes, how far it goes, how often it reports
_RESUME_MAY_CHANGE = ("out_dir", "steps", "eval_interval", "ckpt_interval")


def _check_resume_config(cfg: RunConfig, echoed: RunConfig) -> None:
    """Refuse to resume under a config that differs from the checkpoint's echo.

    A stablemoe run's ``stage_boundary`` is compared as resolved, because -1
    means ``steps // 2`` and ``steps`` may change.
    """
    def value(c: RunConfig, name: str):
        if name == "stage_boundary" and c.variant == "stablemoe":
            return c.model_config().stage_boundary
        return getattr(c, name)

    diffs = [f"{f.name}: checkpoint {value(echoed, f.name)!r}, run {value(cfg, f.name)!r}"
             for f in dataclasses.fields(RunConfig)
             if f.name not in _RESUME_MAY_CHANGE and value(cfg, f.name) != value(echoed, f.name)]
    if diffs:
        raise ValueError("resume config differs from the checkpoint's: " + "; ".join(diffs))


def load_run(ckpt_path: str) -> tuple[RunConfig, Corpus, LanguageModel]:
    """Rebuild a run from its checkpoint: config echo, corpus, and the restored model.

    The first read keeps no tensor, only the config the model is built from;
    the second reads the model's parameters and skips the Adam moments. The
    model draws no init, and its parameters are the arrays that read made.
    """
    cfg = parse_config_text(load_checkpoint(ckpt_path, names=()).config_text)
    corpus = ingest_corpus(cfg.corpus, cfg.splits)
    model = build_model(cfg, corpus, init=False)
    params = model.parameters()
    apply_tensors(params, load_checkpoint(ckpt_path, names={name for name, _ in params}))
    return cfg, corpus, model


def train(cfg: RunConfig, resume_from: str | None = None,
          log=None, model_hook=None) -> TrainResult:
    """Run the training loop; returns checkpoint/metrics paths and rows.

    ``model_hook(model)``, if given, runs after construction (and after any
    checkpoint restore), e.g. to pin gates or disable the noise branch. A
    resume draws no init and zero-fills no moment: the checkpoint's arrays
    become the parameters and the Adam moments.
    """
    cfg.model_config()  # refuse a value out of range before the corpus is read
    corpus = ingest_corpus(cfg.corpus, cfg.splits)
    pairs = pair_count(corpus.train, cfg.seq_len)
    if pairs == 0:
        raise ValueError("corpus train split shorter than one sequence")
    model = build_model(cfg, corpus, init=resume_from is None)
    adam = Adam(model.parameters(), cfg.lr, cfg.beta1, cfg.beta2, cfg.eps_adam, init=resume_from is None)

    start_step = 0
    if resume_from is not None:
        state = model.parameters() + adam.state()
        ck = load_checkpoint(resume_from, names={name for name, _ in state})
        _check_resume_config(cfg, parse_config_text(ck.config_text))
        if ck.step > cfg.steps:
            raise ValueError(f"checkpoint '{resume_from}' is at step {ck.step}, "
                             f"past the run's steps = {cfg.steps}")
        apply_tensors(state, ck)
        start_step = ck.step
    if model_hook is not None:
        model_hook(model)

    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    # a resume keeps the rows written before its step, so each step appears once
    kept = []
    if resume_from is not None and os.path.exists(metrics_path):
        kept = [r.to_line() for r in parse_metrics(metrics_path, before=start_step)]
    # the header and kept rows replace the old file whole, so a kill never leaves it cut short
    with replacing(metrics_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in [METRICS_HEADER] + kept))
    metrics_file = open(metrics_path, "a", encoding="utf-8")

    rows: list[MetricsRow] = []
    t0 = time.monotonic()
    last_ckpt = resume_from or ""

    try:
        for step in range(start_step, cfg.steps):
            # a step with a non-finite loss or gradient stops here, before Adam and any checkpoint
            try:
                k, auxes, nats, bal, unc, total = _train_step(model, adam, cfg, corpus.train, pairs, step)
            except NonFiniteError as err:
                raise TrainAbort(f"non-finite value at step {step} ({err}); "
                                 f"last checkpoint: {last_ckpt or 'none'}") from err

            if step % cfg.eval_interval == 0 or step == cfg.steps - 1:
                entropy, load = routing_stats(auxes, cfg.n_experts)
                nats_value = nats.item()
                row = MetricsRow(
                    step=step, task_nats=nats_value, bpc=nats_value / math.log(2),
                    balance=bal.item(), uncertainty=unc.item() if unc is not None else 0.0,
                    total=total.item(), router_entropy=entropy, expert_load_gini=gini(load),
                    k=k, wall_ms=(time.monotonic() - t0) * 1000.0,
                )
                rows.append(row)
                metrics_file.write(row.to_line() + "\n")
                metrics_file.flush()
                if log:
                    log(f"step {step} bpc {row.bpc:.4f} balance {row.balance:.4f} "
                        f"uncert {row.uncertainty:.5f} k {k}")
            # the auxes pin each layer's input and routing: free them before the next forward
            del auxes, nats, bal, unc, total

            if (step + 1) % cfg.ckpt_interval == 0 or step == cfg.steps - 1:
                last_ckpt = os.path.join(cfg.out_dir, f"ckpt-{step + 1:07d}.bin")
                _save_state(last_ckpt, cfg, model, adam, step + 1)
    finally:
        metrics_file.close()

    final = os.path.join(cfg.out_dir, "ckpt-final.bin")
    if start_step < cfg.steps:  # the last step saved this state as ckpt-<steps>.bin: link it
        with replacing(final) as tmp:
            os.link(last_ckpt, tmp)
    else:
        _save_state(final, cfg, model, adam, cfg.steps)
    return TrainResult(final_checkpoint=final, metrics_path=metrics_path, rows=rows, corpus=corpus)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    bpc: float
    ppl: float
    nats: float
    n_tokens: int
    k: int
    collapse: CollapseReport | None


def window_nats(model: LanguageModel, tokens: np.ndarray, seq_len: int, windows: range, k: int,
                split: str) -> list[float]:
    """The mean nats of each of ``windows``, a range of the split's (input,
    target) windows, at inference-time k: one eval forward of them as a
    batch, then one ``task_loss`` per window. A window's logits do not depend
    on the batch (``tensor._gemm``), so neither does its number."""
    def work():
        x, y = make_batch(tokens, seq_len, windows)
        logits = model.lm_forward(x, "eval", k=k)[0].data
        return [task_loss(Tensor(row), target)[0].item() for row, target in zip(logits, y)]

    return _checked(work, lambda values: "" if all(map(math.isfinite, values))
                    else f"non-finite nats at {split} window {windows.start}")


def evaluate_model(model: LanguageModel, corpus: Corpus, cfg: RunConfig, k: int,
                   split: str, with_collapse: bool = True) -> EvalResult:
    """Teacher-forced evaluation over a split at inference-time k: the mean
    of each window's mean nats, summed exactly (``math.fsum``), so the result
    does not depend on ``batch_size``."""
    tokens = corpus.split(split)
    pairs = pair_count(tokens, cfg.seq_len)
    if pairs == 0:
        raise ValueError(f"split '{split}' shorter than one sequence")
    mean_nats = math.fsum(nats for start in range(0, pairs, cfg.batch_size) for nats in window_nats(
        model, tokens, cfg.seq_len, range(start, min(start + cfg.batch_size, pairs)), k, split)) / pairs

    collapse = None
    if with_collapse:
        batch = collapse_batch(tokens, cfg.seq_len, split)
        collapse = _checked(lambda: collapse_metrics(model, batch, k), _collapse_faults)
    return EvalResult(bpc=mean_nats / math.log(2), ppl=perplexity(mean_nats),
                      nats=mean_nats, n_tokens=pairs * cfg.seq_len, k=k, collapse=collapse)


def _collapse_faults(report: CollapseReport) -> str:
    bad = [f.name for f in dataclasses.fields(report) if not np.isfinite(getattr(report, f.name)).all()]
    return f"non-finite collapse report: {', '.join(bad)}" if bad else ""


def collapse_batch(tokens: np.ndarray, seq_len: int, split: str) -> np.ndarray:
    """The collapse report's batch: the first ceil(64 / seq_len) windows of a
    split, or all of them if it has fewer."""
    pairs = pair_count(tokens, seq_len)
    if pairs == 0:
        raise ValueError(f"split '{split}' shorter than one sequence")
    x, _ = make_batch(tokens, seq_len, range(min(math.ceil(64 / seq_len), pairs)))
    return x


def evaluate_checkpoint(ckpt_path: str, k: int, split: str,
                        with_collapse: bool = True) -> tuple[EvalResult, RunConfig]:
    """Rebuild the run from a checkpoint and evaluate it."""
    cfg, corpus, model = load_run(ckpt_path)
    return evaluate_model(model, corpus, cfg, k, split, with_collapse=with_collapse), cfg
