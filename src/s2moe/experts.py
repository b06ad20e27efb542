"""Per-expert feed-forward networks and the sparse dispatch/combine.

Each expert is a two-layer ReLU MLP of identical shape. The combine step
evaluates only the experts actually selected for at least one token and
scatter-adds ``gate * expert(x)`` back into the output, reducing in expert
index order so results are deterministic.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, add, combine_rows, gather_rows, matmul, mul, relu, reshape

from .routing import RouterDecision


class ExpertBank:
    """N experts with shapes (d -> d_exp -> d); keeps an invocation counter."""

    def __init__(self, n_experts: int, d_model: int, d_expert: int, rng, dtype=np.float32):
        self.n_experts = n_experts
        self.d_model = d_model
        self.d_expert = d_expert
        s1 = 1.0 / np.sqrt(d_model)
        s2 = 1.0 / np.sqrt(d_expert)
        self.w1 = [Tensor(rng.normal((d_model, d_expert), scale=s1).astype(dtype), requires_grad=True)
                   for _ in range(n_experts)]
        self.b1 = [Tensor(np.zeros(d_expert, dtype=dtype), requires_grad=True) for _ in range(n_experts)]
        self.w2 = [Tensor(rng.normal((d_expert, d_model), scale=s2).astype(dtype), requires_grad=True)
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
    the router gradient flows through the kept probabilities.
    """
    b, t, d = x.shape
    n = bank.n_experts
    if decision.gates.shape != (b, t, n):
        raise ValueError(f"gates shape {decision.gates.shape} inconsistent with x {x.shape} and N={n}")
    if decision.indices.max(initial=0) >= n or decision.indices.min(initial=0) < 0:
        raise ValueError(f"decision indices exceed N={n}")

    m = b * t
    x_flat = reshape(x, (m, d))
    # one gate per row, so expert i's gate for token r is row r * n + i
    gate_rows = reshape(decision.gates, (m * n, 1))
    idx_flat = decision.indices.reshape(m, -1)

    segments = []
    for i in range(n):
        rows = np.nonzero((idx_flat == i).any(axis=1))[0]
        if rows.size == 0:
            continue
        tokens = gather_rows(x_flat, rows)
        out_i = bank.apply(tokens, i)
        bank.invocations += int(rows.size)
        segments.append((rows, mul(gather_rows(gate_rows, rows * n + i), out_i)))
    if not segments:
        raise ValueError("no expert selected for any token")
    return reshape(combine_rows(segments, m), (b, t, d))
