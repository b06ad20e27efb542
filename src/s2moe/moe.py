"""MoE layer objects: the baseline sparse layer and the two-path stochastic one.

The stochastic layer routes the clean input and a noise-augmented copy
independently, blends the two outputs with a learned per-token gate, and
surfaces mean-pooled (clean, noisy) input pairs for the uncertainty loss.
A forward trains exactly when it is given a random stream; without one the
stochastic layer is exactly the baseline sparse layer and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experts import ExpertBank, moe_combine
from .routing import RouterDecision, RouterParams, make_router, route
from .stochastic import (
    RngStream,
    blend_gate,
    compute_batch_stats,
    make_blend_gate,
    perturb,
)
from .tensor import Tensor, mean, mix


@dataclass
class MoeAux:
    """Per-layer byproducts needed by losses and diagnostics."""

    decision: RouterDecision
    decision_noisy: RouterDecision | None = None
    pooled_clean: Tensor | None = None   # (B, d)
    pooled_noisy: Tensor | None = None   # (B, d)
    moe_input: np.ndarray | None = None  # the layer input x.data, not a copy


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

    def forward(self, x: Tensor, k: int, rng: RngStream | None = None) -> tuple[Tensor, MoeAux]:
        """One routed path; it draws nothing, so ``rng`` goes unused."""
        decision = route(x, self.router, k)
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

    def forward(self, x: Tensor, k: int, rng: RngStream | None = None) -> tuple[Tensor, MoeAux]:
        """With a stream: g(x) * f(x) + (1 - g(x)) * f(x_hat). Without: exactly f(x)."""
        if rng is None:
            return super().forward(x, k)
        x_hat = perturb(x, compute_batch_stats(x), rng) if self.noise_enabled else x
        y_clean, aux = super().forward(x, k)
        decision_noisy = route(x_hat, self.router, k)
        y_noisy = moe_combine(x_hat, decision_noisy, self.experts)
        y = self.mix(x, y_clean, y_noisy)
        aux.decision_noisy = decision_noisy
        aux.pooled_clean = mean(x, axis=1)
        aux.pooled_noisy = mean(x_hat, axis=1)
        return y, aux

    def mix(self, x: Tensor, y_clean: Tensor, y_noisy: Tensor) -> Tensor:
        """The two-path blend g(x) * y_clean + (1 - g(x)) * y_noisy."""
        return mix(blend_gate(x, self.blend), y_clean, y_noisy)
