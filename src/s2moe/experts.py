"""Per-expert feed-forward networks and the sparse dispatch/combine.

Each expert is a two-layer ReLU MLP of identical shape. The combine step is
one ``expert_ffn`` op: the routed (token, expert) pairs are grouped by
expert, each selected expert runs once on its contiguous slice of tokens,
and ``gate * expert(x)`` is summed per token in expert index order, so
results are deterministic. Unselected experts are never evaluated.
"""

from __future__ import annotations

import numpy as np

from .routing import RouterDecision
from .tensor import Tensor, add, expert_ffn, matmul, relu


class ExpertBank:
    """N experts with shapes (d -> d_exp -> d); keeps an invocation counter."""

    def __init__(self, n_experts: int, d_model: int, d_expert: int, rng, dtype=np.float32):
        self.n_experts = n_experts
        s1 = 1.0 / np.sqrt(d_model)
        s2 = 1.0 / np.sqrt(d_expert)
        self.w1 = [Tensor(rng.normal((d_model, d_expert), scale=s1).astype(dtype, copy=False), requires_grad=True)
                   for _ in range(n_experts)]
        self.b1 = [Tensor(np.zeros(d_expert, dtype=dtype), requires_grad=True) for _ in range(n_experts)]
        self.w2 = [Tensor(rng.normal((d_expert, d_model), scale=s2).astype(dtype, copy=False), requires_grad=True)
                   for _ in range(n_experts)]
        self.b2 = [Tensor(np.zeros(d_model, dtype=dtype), requires_grad=True) for _ in range(n_experts)]
        self.invocations = 0  # token-expert pairs evaluated

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for i in range(self.n_experts):
            named += [(f"expert{i}.w1", self.w1[i]), (f"expert{i}.b1", self.b1[i]),
                      (f"expert{i}.w2", self.w2[i]), (f"expert{i}.b2", self.b2[i])]
        return named

    def apply(self, x: Tensor, i: int) -> Tensor:
        """Run expert ``i`` on a (M, d) slab of tokens."""
        h = relu(add(matmul(x, self.w1[i]), self.b1[i]))
        return add(matmul(h, self.w2[i]), self.b2[i])


def moe_combine(x: Tensor, decision: RouterDecision, bank: ExpertBank) -> Tensor:
    """Weighted sum of selected expert outputs per token (B, T, d).

    Unselected experts are never evaluated. Gates enter multiplicatively, so
    the router gradient flows through the kept probabilities. ``expert_ffn``
    refuses gates or indices that do not match x and the bank.
    """
    y = expert_ffn(x, decision.gates, decision.indices, bank.w1, bank.b1, bank.w2, bank.b2)
    bank.invocations += int(decision.indices.size)  # after the op, which refuses a bad decision
    return y
