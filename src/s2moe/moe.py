"""MoE layer objects: the baseline sparse layer and the two-path stochastic one.

The stochastic layer routes the clean input and a noise-augmented copy
independently, as one stacked batch through one route and one expert
combine, blends the two outputs with a learned per-token gate, and surfaces
mean-pooled (clean, noisy) input pairs for the uncertainty loss.
A forward trains exactly when it is given a random stream; without one the
stochastic layer is exactly the baseline sparse layer and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experts import ExpertBank, moe_combine
from .routing import RouterDecision, RouterParams, make_router, route
from .stochastic import NoiseStats, RngStream, blend_gate, compute_batch_stats, make_blend_gate, perturb
from .tensor import Tensor, gather_rows, mean, mix, rebase, stack_affine


@dataclass
class MoeAux:
    """Per-layer byproducts needed by losses and diagnostics."""

    decision: RouterDecision
    decision_noisy: RouterDecision | None = None
    pooled_clean: Tensor | None = None   # (B, d)
    pooled_noisy: Tensor | None = None   # (B, d)
    # the layer input x.data, not a copy; None from a two-path training
    # forward, whose input sits in the stacked batch an aux would pin
    moe_input: np.ndarray | None = None


class SmoeLayer:
    """Sparse MoE layer: route, evaluate selected experts, combine."""

    def __init__(self, d_model: int, n_experts: int, d_expert: int, rng: RngStream,
                 variant: str = "smoe", dtype=np.float32, d_low: int = 8,
                 stage_boundary: int | None = None, rng_router: RngStream | None = None):
        self.router: RouterParams = make_router(
            n_experts, d_model, variant, rng_router if rng_router is not None else rng,
            dtype=dtype, d_low=d_low, stage_boundary=stage_boundary)
        self.experts = ExpertBank(n_experts, d_model, d_expert, rng, dtype=dtype)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [(f"router.{n}", t) for n, t in self.router.parameters()]
        named += self.experts.parameters()
        return named

    def forward(self, x: Tensor, k: int, rng: RngStream | None = None, *,
                decision: RouterDecision | None = None) -> tuple[Tensor, MoeAux]:
        """One routed path, by ``decision`` when given (routing pinned) or by
        a live route; it draws nothing, so ``rng`` goes unused."""
        decision = route(x, self.router, k) if decision is None else decision
        return moe_combine(x, decision, self.experts), MoeAux(decision=decision, moe_input=x.data)


class S2MoeLayer(SmoeLayer):
    """Two-path MoE layer learning from clean and noise-augmented inputs: the
    sparse layer's router and experts plus a learned blend gate."""

    def __init__(self, d_model: int, n_experts: int, d_expert: int, rng: RngStream,
                 dtype=np.float32, noise_enabled: bool = True,
                 rng_router: RngStream | None = None, rng_blend: RngStream | None = None):
        super().__init__(d_model, n_experts, d_expert, rng, dtype=dtype, rng_router=rng_router)
        self.blend = make_blend_gate(d_model, rng_blend if rng_blend is not None else rng, dtype=dtype)
        self.noise_enabled = noise_enabled

    def parameters(self) -> list[tuple[str, Tensor]]:
        return super().parameters() + self.blend.parameters()

    def stack(self, x: Tensor, rng: RngStream, stats: NoiseStats | None = None) -> Tensor:
        """The (2B, T, d) batch of both paths: x over its copy noised from ``rng``
        with ``stats`` (x's own by default), or over x again with the noise off."""
        if not self.noise_enabled:
            return stack_affine(x)
        return perturb(x, compute_batch_stats(x) if stats is None else stats, rng)

    def forward(self, x: Tensor, k: int, rng: RngStream | None = None, *,
                decision: RouterDecision | None = None,
                stats: NoiseStats | None = None) -> tuple[Tensor, MoeAux]:
        """With a stream: g(x) * f(x) + (1 - g(x)) * f(x_hat). Without: exactly f(x).

        x and x_hat run as one (2B, T, d) batch (``stack``, with ``stats``):
        one route, or the pinned ``decision`` of that batch, and one expert
        combine serve both paths. Each row is routed and combined as it would
        be in a batch of its own path only, so the forward equals the per-path
        one bit for bit; the router's and experts' weight gradients sum both
        paths' rows in one product."""
        if rng is None:
            return super().forward(x, k, decision=decision)
        b = x.shape[0]
        pair = self.stack(x, rng, stats)
        x = rebase(x, pair.data[:b])  # the blend keeps the pair's clean rows, not a second copy of them
        y, aux = super().forward(pair, k, decision=decision)
        both, clean, noisy = aux.decision, np.arange(b), np.arange(b, 2 * b)
        aux.decision = RouterDecision(probs=gather_rows(both.probs, clean), indices=both.indices[:b],
                                      gates=Tensor(both.gates.data[:b]), k_used=k)
        aux.decision_noisy = RouterDecision(probs=Tensor(both.probs.data[b:]), indices=both.indices[b:],
                                            gates=Tensor(both.gates.data[b:]), k_used=k)
        pooled = mean(pair, axis=1)
        aux.pooled_clean, aux.pooled_noisy = gather_rows(pooled, clean), gather_rows(pooled, noisy)
        aux.moe_input = None
        return mix(blend_gate(x, self.blend), y), aux
