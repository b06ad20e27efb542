"""Gaussian uncertainty modeling for MoE inputs.

Per batch, each feature dimension gets a mean and a population standard
deviation; the noisy input is ``x_hat = n1 * x + n2`` with ``n1 ~ N(1, sigma^2)``
and ``n2 ~ N(mu, sigma^2)`` drawn per element, made stacked under x as one
batch for both paths. The stats and draws carry no
gradient; only the ``x`` factor does. A one-layer sigmoid gate blends the
clean-path and noisy-path outputs per token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add, matmul, sigmoid, stack_affine


@dataclass
class NoiseStats:
    """Detached per-dimension batch statistics."""

    mu: np.ndarray      # (d,)
    sigma: np.ndarray   # (d,), non-negative


class RngStream:
    """Counter-based reproducible noise source.

    Identical (seed, counter) always produce identical draws; every draw
    advances the counter by one, and distinct counters map onto disjoint
    Philox blocks.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed)
        self.counter = int(counter)
        if self.counter < 0:
            raise ValueError("counter must be non-negative")

    def _generator(self) -> np.random.Generator:
        bg = np.random.Philox(key=self.seed)
        bg.advance(self.counter << 64)
        return np.random.Generator(bg)

    def normal(self, shape, loc=0.0, scale=1.0) -> np.ndarray:
        g = self._generator()
        self.counter += 1
        # standard draws plus affine transform: the per-element-scale path of
        # Generator.normal is an order of magnitude slower; in place, it
        # rounds as loc + scale * z does and holds one array of the draw
        z = g.standard_normal(shape)
        z *= scale
        z += loc
        return z

    def uniform(self, shape) -> np.ndarray:
        g = self._generator()
        self.counter += 1
        return g.random(size=shape)

    def integers(self, high: int, size) -> np.ndarray:
        g = self._generator()
        self.counter += 1
        return g.integers(0, high, size=size)


@dataclass
class BlendGateParams:
    """One-layer sigmoid gate: one scalar in (0, 1) per token."""

    w: Tensor   # (d, 1)
    b: Tensor   # (1,)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("blend.w", self.w), ("blend.b", self.b)]


def make_blend_gate(d_model: int, rng: RngStream, dtype=np.float32) -> BlendGateParams:
    w = Tensor(rng.normal((d_model, 1), scale=1.0 / np.sqrt(d_model)).astype(dtype, copy=False),
               requires_grad=True)
    b = Tensor(np.zeros(1, dtype=dtype), requires_grad=True)
    return BlendGateParams(w=w, b=b)


def compute_batch_stats(x: Tensor) -> NoiseStats:
    """Mean and population std per feature dimension over the batch and token axes."""
    data = x.data
    if data.ndim < 2 or data.size == 0:
        raise ValueError("compute_batch_stats: batch is empty")
    flat = data.reshape(-1, data.shape[-1])
    mu = flat.mean(axis=0)
    sigma = flat.std(axis=0)  # ddof 0
    return NoiseStats(mu=mu, sigma=sigma)


def perturb(x: Tensor, stats: NoiseStats, rng: RngStream) -> Tensor:
    """x (B, ...) stacked on its noise-augmented copy ``n1 * x + n2``, as one
    (2B, ...) array written where the copy is made; gradient flows through
    x only. The lower half rounds as ``add_mul(Tensor(n2), x, n1)`` does."""
    shape = x.shape
    sigma = np.broadcast_to(stats.sigma, shape)
    n1 = rng.normal(shape, loc=1.0, scale=sigma).astype(x.dtype)
    n2 = rng.normal(shape, loc=np.broadcast_to(stats.mu, shape), scale=sigma).astype(x.dtype)
    return stack_affine(x, n1, n2)


def blend_gate(x: Tensor, params: BlendGateParams) -> Tensor:
    """g = sigmoid(w . x + b), shape (B, T, 1)."""
    return sigmoid(add(matmul(x, params.w), params.b))
