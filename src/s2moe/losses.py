"""Training objective: task cross-entropy, load-balance penalty, and the
contrastive uncertainty term tying each pooled representation to its own
noisy counterpart against in-batch negatives.

Total objective: task + alpha * balance + beta * uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .routing import RouterDecision
from .tensor import Tensor, cross_entropy_logits, div, matmul, mul, power, transpose, tsum


@dataclass
class PooledPair:
    """Per-sequence mean-pooled MoE-layer inputs and their noisy counterparts."""

    x_pool: Tensor       # (B, d)
    xhat_pool: Tensor    # (B, d)
    tau: float = 1.0     # kappa temperature, > 0


def task_loss(logits: Tensor, targets: np.ndarray) -> tuple[Tensor, float, float]:
    """Mean token cross-entropy in nats, plus bits-per-character and perplexity."""
    nats = cross_entropy_logits(logits, targets)
    value = nats.item()
    return nats, value / math.log(2.0), perplexity(value)


def perplexity(nats: float) -> float:
    """exp(nats); inf where that overflows a float (a finite loss above ~709.8 nats)."""
    try:
        return math.exp(nats)
    except OverflowError:
        return math.inf


def balance_loss(decision: RouterDecision) -> Tensor:
    """Switch-style load penalty: N * sum_i f_i * P_i.

    f_i is the fraction of tokens whose top-1 expert is i (constant), P_i the
    mean router probability of expert i (differentiable).
    """
    probs = decision.probs
    n = probs.shape[-1]
    m = int(np.prod(probs.shape[:-1]))
    if m == 0:
        raise ValueError("balance_loss: decision covers zero tokens")
    top1 = decision.indices[..., 0].reshape(-1)
    f = np.bincount(top1, minlength=n).astype(probs.dtype) / m
    p_mean = tsum(probs, axis=tuple(range(probs.data.ndim - 1))) * (1.0 / m)
    return tsum(mul(p_mean, Tensor(f))) * float(n)


def uncertainty_loss(pair: PooledPair) -> Tensor:
    """InfoNCE over pooled pairs with temperature-scaled cosine similarity.

    Row i of the kernel matrix compares x_i against every xhat_j; the
    diagonal is the positive. Single-sample batches give exactly zero.
    """
    if pair.tau <= 0:
        raise ValueError("uncertainty_loss: temperature must be positive")
    x, xh = pair.x_pool, pair.xhat_pool
    if x.shape != xh.shape:
        raise ValueError(f"uncertainty_loss: pooled shapes differ {x.shape} vs {xh.shape}")
    for name, v in (("x_pool", x), ("xhat_pool", xh)):
        norms = np.linalg.norm(v.data, axis=-1)
        if np.any(norms == 0.0):
            raise ValueError(f"uncertainty_loss: zero-norm row in {name}; cosine undefined")
    xn = _unit(x)
    xhn = _unit(xh)
    kappa = div(matmul(xn, transpose(xhn, (1, 0))), Tensor(np.asarray(pair.tau, dtype=x.dtype)))
    b = x.shape[0]
    return cross_entropy_logits(kappa, np.arange(b))


def _unit(v: Tensor) -> Tensor:
    norm = power(tsum(mul(v, v), axis=-1, keepdims=True), 0.5)
    return div(v, norm)


def total_loss(task: Tensor, balance: Tensor | None, uncertainty: Tensor | None,
               alpha: float, beta: float) -> Tensor:
    """Differentiable combination task + alpha * balance + beta * uncertainty."""
    if alpha < 0 or beta < 0:
        raise ValueError("loss coefficients must be non-negative")
    out = task
    if balance is not None and alpha != 0.0:
        out = out + balance * alpha
    if uncertainty is not None and beta != 0.0:
        out = out + uncertainty * beta
    return out
