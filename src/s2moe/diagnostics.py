"""Numerical layer diagnostics: Jacobian structure probes, representation
collapse indicators, and a closed-form FLOPs accountant.

The Jacobian probe estimates the layer map at a single token by central
differences (64-bit), once with the routing probabilities live and once with
them frozen at the probe point. Their difference is the routing contribution;
its numerical rank is bounded by the number of routing softmax terms, which is
what the probe asserts (one per expert embedding for the baseline layer, twice
that for the fixed-draw stochastic layer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe import MoeAux, S2MoeLayer
from .routing import route
from .stochastic import RngStream
from .tensor import Tape, Tensor, backward, mul, tsum


@dataclass
class JacobianReport:
    jacobian: np.ndarray            # (d, d) FD estimate, routing live
    jacobian_fixed_gates: np.ndarray
    routing_residual: np.ndarray    # difference of the two
    singular_values: np.ndarray     # of the residual
    rank: int
    rank_tolerance: float
    autodiff_fd_max_rel_err: float
    prob_gap: float                 # top-k boundary margin at the probe point
    kink_gap: float                 # distance of expert hidden pre-acts to 0


@dataclass
class CollapseReport:
    mean_pairwise_cosine: float
    per_layer_cosine: list[float]
    router_entropy: float           # mean nats over tokens
    expert_load: np.ndarray         # fraction of selected slots per expert
    load_gini: float


@dataclass
class FlopsReport:
    items: dict[str, int]           # per-token MACs, whole stack
    total: int
    k: int
    seq_len: int
    variant: str
    mode: str


# ---------------------------------------------------------------------------
# Jacobian probe

_FD_EPS = 1e-5          # central-difference step
_BOUNDARY_TOL = 1e-3    # smallest top-k margin a probe point may have


def _boundary_gap(probs_row: np.ndarray, k: int) -> float:
    srt = np.sort(probs_row)[::-1]
    if k >= srt.size:
        return float("inf")
    return float(srt[k - 1] - srt[k])


def _kink_gap(experts, x_row: np.ndarray, indices: np.ndarray) -> float:
    return min(float(np.abs(x_row @ experts.w1[int(i)].data + experts.b1[int(i)].data).min())
               for i in np.unique(indices))


def jacobian_probe(layer, x_token: np.ndarray, k: int,
                   noise_rng: RngStream | None = None, stats=None) -> JacobianReport:
    """Probe the layer Jacobian at one token and decompose out the routing term.

    Every evaluation of the map runs ``layer.forward`` on the one-token
    batch, with its routing live or pinned. A stochastic layer needs
    ``stats`` from a context batch (single-token stats would degenerate to
    sigma = 0) and ``noise_rng``, whose one noise draw is replayed by every
    forward so the map under test is deterministic. Probe points whose top-k
    margin is at most ``_BOUNDARY_TOL`` are rejected.
    """
    v0 = np.asarray(x_token, dtype=np.float64).reshape(-1)
    d = v0.size
    x0 = Tensor(v0.reshape(1, 1, d))

    rows, stochastic = x0, isinstance(layer, S2MoeLayer)
    if stochastic:
        for name, value in (("stats", stats), ("noise_rng", noise_rng)):
            if value is None:
                raise ValueError(f"jacobian_probe: a stochastic layer needs {name}")
        draw = (noise_rng.seed, noise_rng.counter)  # every forward replays this one noise draw
        rows = layer.stack(x0, noise_rng, stats)  # the probe point's clean row over its noisy one

    def output(x: Tensor, decision=None) -> Tensor:
        """``layer.forward`` at x, with its routing pinned to ``decision`` when given."""
        paths = dict(rng=RngStream(*draw), stats=stats) if stochastic else {}
        return layer.forward(x, k, decision=decision, **paths)[0]

    # one untaped route of the probe point's rows, as the forward stacks them, pins the gates
    pinned = route(rows, layer.router, k)
    gap = min(_boundary_gap(p, k) for p in pinned.probs.data[:, 0])
    kink = min(_kink_gap(layer.experts, r, i) for r, i in zip(rows.data[:, 0], pinned.indices[:, 0]))
    if gap <= _BOUNDARY_TOL:
        raise ValueError(f"probe point sits on a top-k boundary (gap {gap:.3e})")

    def fd_jacobian(decision):
        jac = np.zeros((d, d))
        for j in range(d):
            vp, vm = x0.data.copy(), x0.data.copy()
            vp[0, 0, j] += _FD_EPS
            vm[0, 0, j] -= _FD_EPS
            jac[:, j] = (output(Tensor(vp), decision).data.reshape(-1)
                         - output(Tensor(vm), decision).data.reshape(-1)) / (2 * _FD_EPS)
        return jac

    j_full = fd_jacobian(None)
    j_fixed = fd_jacobian(pinned)

    # autodiff rows of the full map for the FD cross-check
    j_auto = np.zeros((d, d))
    for i in range(d):
        onehot = np.zeros((1, 1, d))
        onehot[0, 0, i] = 1.0
        with Tape():
            x = Tensor(v0.reshape(1, 1, d), requires_grad=True)
            backward(tsum(mul(output(x), Tensor(onehot))))
        j_auto[i] = x.grad.reshape(-1)

    denom = np.maximum(np.maximum(np.abs(j_auto), np.abs(j_full)), 1e-8)
    rel_err = float(np.max(np.abs(j_auto - j_full) / denom))

    residual = j_full - j_fixed
    sv = np.linalg.svd(residual, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    tol = 1e-6 * smax
    rank = int(np.sum(sv > tol)) if smax > 0 else 0
    return JacobianReport(
        jacobian=j_full, jacobian_fixed_gates=j_fixed, routing_residual=residual,
        singular_values=sv, rank=rank, rank_tolerance=tol,
        autodiff_fd_max_rel_err=rel_err, prob_gap=gap, kink_gap=kink,
    )


# ---------------------------------------------------------------------------
# collapse metrics


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative vector (0 = perfectly even)."""
    v = np.asarray(values, dtype=np.float64)
    if v.sum() == 0:
        return 0.0
    diffs = np.abs(v[:, None] - v[None, :]).sum()
    return float(diffs / (2.0 * v.size * v.sum()))


def routing_stats(auxes: list[MoeAux], n_experts: int) -> tuple[float, np.ndarray]:
    """Router entropy (nats, mean over tokens, then over layers) and the raw
    per-expert counts of selected slots, summed over layers."""
    entropies = []
    load = np.zeros(n_experts)
    for aux in auxes:
        p = aux.decision.probs.data.reshape(-1, n_experts)
        log_p = np.log(p, where=p > 0, out=np.zeros_like(p))  # 0 log 0 = 0
        entropies.append(float(np.mean(-np.sum(p * log_p, axis=-1))))
        load += np.bincount(aux.decision.indices.reshape(-1), minlength=n_experts)
    return float(np.mean(entropies)), load


def collapse_metrics(model, tokens: np.ndarray, k: int) -> CollapseReport:
    """Expert-output similarity, router entropy, and load statistics at inference k.

    Every token of the batch is pushed through all N experts of each layer
    (on the layer's actual input activations) and expert pairs are compared
    by cosine similarity.
    """
    tokens = np.asarray(tokens)
    if tokens.size < 64:
        raise ValueError("collapse_metrics wants at least 64 tokens")
    _, auxes = model.lm_forward(tokens, mode="eval", k=k)

    per_layer = []
    n = model.cfg.n_experts
    for blk, aux in zip(model.blocks, auxes):
        x = aux.moe_input.reshape(-1, model.cfg.d_model)
        bank = blk.moe.experts
        outs = np.stack([bank.apply(Tensor(x), i).data for i in range(n)])  # (N, M, d)
        norms = np.linalg.norm(outs, axis=-1)
        norms = np.maximum(norms, 1e-12)
        unit = outs / norms[..., None]
        cos_acc = []
        for i in range(n):
            for j in range(i + 1, n):
                cos_acc.append(float(np.mean(np.sum(unit[i] * unit[j], axis=-1))))
        per_layer.append(float(np.mean(cos_acc)))

    entropy, load = routing_stats(auxes, n)
    load = load / load.sum()
    return CollapseReport(
        mean_pairwise_cosine=float(np.mean(per_layer)),
        per_layer_cosine=per_layer,
        router_entropy=entropy,
        expert_load=load,
        load_gini=gini(load),
    )


# ---------------------------------------------------------------------------
# FLOPs accounting


def flops_per_token(cfg, k: int, mode: str = "eval") -> FlopsReport:
    """Itemized per-token forward multiply-accumulates for the decoder stack.

    Counts linear maps only (norms and activations excluded): attention
    4*d^2 + 2*T*d, router N*d, experts k * 2*d*d_exp, each per layer. In
    train mode the stochastic variant runs both paths, doubling the router
    and expert items and adding the blend gate; at eval it runs one path and
    matches the baseline exactly.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode '{mode}'")
    if not 0 <= k <= cfg.n_experts:
        raise ValueError(f"k={k} out of range [0, {cfg.n_experts}]")
    t = cfg.seq_len
    d, h, n, layers = cfg.d_model, cfg.d_exp, cfg.n_experts, cfg.n_layers
    two_path = cfg.variant == "s2moe" and mode == "train"
    paths = 2 if two_path else 1
    items = {
        "attention_projections": layers * 4 * d * d,
        "attention_mix": layers * 2 * t * d,
        "router": layers * paths * n * d,
        "experts": layers * paths * k * 2 * d * h,
        "blend_gate": layers * d if two_path else 0,
    }
    return FlopsReport(items=items, total=sum(items.values()), k=k, seq_len=t,
                       variant=cfg.variant, mode=mode)


# ---------------------------------------------------------------------------
# structured text reports


def format_flops_report(report: FlopsReport) -> str:
    lines = ["[flops]",
             f"variant = {report.variant}",
             f"mode = {report.mode}",
             f"k = {report.k}",
             f"seq_len = {report.seq_len}"]
    lines += [f"per_token.{name} = {macs}" for name, macs in report.items.items()]
    lines.append(f"per_token.total = {report.total}")
    return "\n".join(lines)


def format_collapse_report(report: CollapseReport) -> str:
    lines = ["[collapse]",
             f"mean_pairwise_cosine = {report.mean_pairwise_cosine!r}",
             f"router_entropy_nats = {report.router_entropy!r}",
             f"expert_load = {','.join(repr(float(v)) for v in report.expert_load)}",
             f"load_gini = {report.load_gini!r}"]
    for i, c in enumerate(report.per_layer_cosine):
        lines.append(f"layer{i}.cosine = {c!r}")
    return "\n".join(lines)


def format_jacobian_report(report: JacobianReport) -> str:
    sv = ",".join(repr(float(v)) for v in report.singular_values[:12])
    return "\n".join([
        "[jacobian]",
        f"rank = {report.rank}",
        f"rank_tolerance = {report.rank_tolerance!r}",
        f"autodiff_fd_max_rel_err = {report.autodiff_fd_max_rel_err!r}",
        f"prob_gap = {report.prob_gap!r}",
        f"kink_gap = {report.kink_gap!r}",
        f"leading_singular_values = {sv}",
    ])
