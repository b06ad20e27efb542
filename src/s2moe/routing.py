"""Expert-selection probabilities and top-k gate masks.

Scores are ``x @ W_e^T`` softmaxed over the expert axis; the top-k entries
keep their probabilities as combination weights and everything else is masked
to exact zero (no renormalization of the kept mass). Variants: a frozen
randomly initialized router with a growing-k schedule, low-dimensional cosine
scores, and a two-stage mode that freezes the router mid-run. A router is
frozen when ``w_e.requires_grad`` is False: backward then gives it no gradient
and Adam skips it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, div, matmul, mul, power, softmax, transpose, tsum


@dataclass
class RouterParams:
    """Learnable router state for one MoE layer."""

    w_e: Tensor                      # (N, d) expert embeddings
    variant: str = "smoe"            # smoe | smoe-dropout | xmoe | stablemoe
    # xmoe extras
    w_down: Tensor | None = None     # (d_low, d) down-projection
    emb_low: Tensor | None = None    # (N, d_low) low-dimensional embeddings
    tau_r: Tensor | None = None      # learnable temperature, > 0
    # stablemoe: the first step with a frozen router
    stage_boundary: int | None = None

    @property
    def n_experts(self) -> int:
        return self.w_e.shape[0]

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [("w_e", self.w_e)]
        if self.variant == "xmoe":
            named += [("w_down", self.w_down), ("emb_low", self.emb_low), ("tau_r", self.tau_r)]
        return named


@dataclass
class RouterDecision:
    """Per-token routing outcome over (B, T) tokens and N experts."""

    probs: Tensor               # (B, T, N), rows sum to 1
    indices: np.ndarray         # (B, T, k) selected experts, distinct per row
    gates: Tensor               # (B, T, N), zero off the selected set
    k_used: int


VARIANTS = ("smoe", "s2moe", "smoe-dropout", "xmoe", "stablemoe")


def make_router(n_experts: int, d_model: int, variant: str, rng, dtype=np.float32,
                d_low: int = 8, stage_boundary: int | None = None,
                frozen_seed: int | None = None) -> RouterParams:
    """Initialize router parameters for a variant.

    ``rng`` draws the embeddings. smoe-dropout freezes them for good, and
    draws them from its own ``frozen_seed`` stream when one is given.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown router variant '{variant}'")
    scale = 1.0 / np.sqrt(d_model)
    if variant == "smoe-dropout":
        from .stochastic import RngStream
        stream = RngStream(frozen_seed) if frozen_seed is not None else rng
        w = stream.normal((n_experts, d_model), scale=scale).astype(dtype, copy=False)
        return RouterParams(w_e=Tensor(w, requires_grad=False), variant=variant)
    w = Tensor(rng.normal((n_experts, d_model), scale=scale).astype(dtype, copy=False), requires_grad=True)
    params = RouterParams(w_e=w, variant=variant)
    if variant == "xmoe":
        if not d_low < d_model:
            raise ValueError(f"xmoe requires d_low < d_model, got {d_low} >= {d_model}")
        params.w_down = Tensor(rng.normal((d_low, d_model), scale=scale).astype(dtype, copy=False),
                               requires_grad=True)
        emb_low = rng.normal((n_experts, d_low), scale=1.0 / np.sqrt(d_low))
        params.emb_low = Tensor(emb_low.astype(dtype, copy=False), requires_grad=True)
        params.tau_r = Tensor(np.asarray(0.07, dtype=dtype), requires_grad=True)
    if variant == "stablemoe":
        params.stage_boundary = stage_boundary
    return params


def topk_mask(probs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and gate row for the k largest entries of a single row.

    Ties break toward the lowest index; unselected entries are exactly 0.
    """
    probs = np.asarray(probs)
    indices = _topk_indices_batched(probs, k)
    gates = np.zeros_like(probs)
    gates[indices] = probs[indices]
    return indices, gates


def _topk_indices_batched(probs: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(-probs, axis=-1, kind="stable")[..., :k]


def _unit_rows(v: Tensor) -> Tensor:
    norm = power(tsum(mul(v, v), axis=-1, keepdims=True) + 1e-12, 0.5)
    return div(v, norm)


def _routing_scores(x: Tensor, params: RouterParams) -> Tensor:
    if params.variant == "xmoe":
        if params.tau_r is None or float(params.tau_r.data) <= 0:
            raise ValueError("xmoe temperature must be positive")
        low = _unit_rows(matmul(x, transpose(params.w_down, (1, 0))))
        cos = matmul(low, transpose(_unit_rows(params.emb_low), (1, 0)))
        return div(cos, params.tau_r)
    return matmul(x, transpose(params.w_e, (1, 0)))


def route(x: Tensor, params: RouterParams, k: int) -> RouterDecision:
    """Route a (B, T, d) batch: softmax scores, then top-k gate masking.

    Under a tape, gradient flows into every router parameter whose
    ``requires_grad`` is set.
    """
    n = params.n_experts
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    scores = _routing_scores(x, params)
    probs = softmax(scores, axis=-1)
    indices = _topk_indices_batched(probs.data, k)
    mask = np.zeros(probs.shape, dtype=probs.dtype)
    np.put_along_axis(mask, indices, 1.0, axis=-1)
    gates = mul(probs, Tensor(mask))
    return RouterDecision(probs=probs, indices=indices, gates=gates, k_used=k)


def dropout_schedule_k(step: int, total_steps: int, n_experts: int) -> int:
    """Linear schedule from 1 active expert up to all of them."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    k = int(np.ceil(n_experts * step / total_steps))
    return max(1, min(k, n_experts))


def stablemoe_update(params: RouterParams, step: int) -> None:
    """Set the two-stage policy for ``step``: the stablemoe router trains
    before ``stage_boundary`` and is frozen from it on. Other variants are
    left as built."""
    if params.stage_boundary is not None:
        params.w_e.requires_grad = step < params.stage_boundary
