"""Gaussian uncertainty modeling for MoE inputs.

Per batch, each feature dimension gets a mean and a population standard
deviation; the noisy input is ``x_hat = n1 * x + n2`` with ``n1 ~ N(1, sigma^2)``
and ``n2 ~ N(mu, sigma^2)`` drawn per element (one Box-Muller pair from one
draw), made stacked under x as one batch for both paths. The stats and draws
carry no gradient; only the ``x`` factor does. A one-layer sigmoid gate
blends the clean-path and noisy-path outputs per token.
"""

from __future__ import annotations

import math
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
    Philox blocks. Init and batch draws go through numpy's ``Generator``;
    a training step's noise and dropout are fixed transforms of one draw's
    raw Philox words, so they cost little more than their bits.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed)
        self.counter = int(counter)
        if self.counter < 0:
            raise ValueError("counter must be non-negative")

    def _next(self) -> np.random.Philox:
        """The bit generator of the next draw, which takes one counter."""
        bg = np.random.Philox(key=self.seed)
        bg.advance(self.counter << 64)
        self.counter += 1
        return bg

    def _raw(self, words: int) -> np.ndarray:
        """The next draw as ``words`` raw 64-bit words, little-endian in
        memory on any host, so a view as narrower lanes reads each word from
        its lowest bits up."""
        return self._next().random_raw(words).astype("<u8", copy=False)

    def normal(self, shape, loc=0.0, scale=1.0) -> np.ndarray:
        # standard draws plus affine transform: the per-element-scale path of
        # Generator.normal is an order of magnitude slower
        z = np.random.Generator(self._next()).standard_normal(shape)
        z *= scale
        z += loc
        return z

    def integers(self, high: int, size) -> np.ndarray:
        return np.random.Generator(self._next()).integers(0, high, size=size)

    def normal_pair(self, shape) -> tuple[np.ndarray, np.ndarray]:
        """Two independent float32 standard normal arrays of ``shape`` from
        one draw, by Box-Muller: its 2n 32-bit lanes give 24-bit uniforms
        u in (0, 1], the first n u1 and the last n u2, and
        z1 = sqrt(-2 ln u1) cos(2 pi u2), z2 = sqrt(-2 ln u1) sin(2 pi u2).
        Their tails end at sqrt(48 ln 2), about 5.77."""
        n = math.prod(shape)
        u = (self._raw(n).view("<u4") >> 8).astype(np.float32)
        u += 1
        u *= np.float32(2.0 ** -24)
        r, theta = u[:n], u[n:]
        np.log(r, out=r)
        r *= -2
        np.sqrt(r, out=r)
        theta *= np.float32(2 * np.pi)
        z1 = np.cos(theta)
        z1 *= r
        z2 = np.sin(theta, out=theta)
        z2 *= r
        return z1.reshape(shape), z2.reshape(shape)

    def keep_mask(self, shape, threshold: int) -> np.ndarray:
        """A bool array of ``shape`` from one draw: its ceil(n / 4) words
        read as little-endian 16-bit lanes, True where a lane is below
        ``threshold`` (at most 2**16), so each position with probability
        threshold / 2**16."""
        n = math.prod(shape)
        return (self._raw(-(-n // 4)).view("<u2")[:n] < threshold).reshape(shape)


def keep_threshold(keep: float) -> int:
    """``keep * 2**16`` rounded half up: the 16-bit lanes below it keep
    their positions (``RngStream.keep_mask``). 0 for a keep rate below 2**-17."""
    scaled = keep * 65536.0
    whole = math.floor(scaled)
    return whole + (scaled - whole >= 0.5)


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
    x only. The lower half rounds as ``add_mul(Tensor(n2), x, n1)`` does.

    n1 = 1 + sigma * z1 and n2 = mu + sigma * z2 are formed in x's dtype from
    the stream's next draw, the float32 normal pair ``(z1, z2)``
    (``RngStream.normal_pair``), which a float64 x takes exactly upcast."""
    dtype = x.dtype
    n1, n2 = (z.astype(dtype, copy=False) for z in rng.normal_pair(x.shape))
    sigma = stats.sigma.astype(dtype, copy=False)
    n1 *= sigma
    n1 += 1
    n2 *= sigma
    n2 += stats.mu.astype(dtype, copy=False)
    return stack_affine(x, n1, n2)


def blend_gate(x: Tensor, params: BlendGateParams) -> Tensor:
    """g = sigmoid(w . x + b), shape (B, T, 1)."""
    return sigmoid(add(matmul(x, params.w), params.b))
