"""Causal decoder language model whose FFN sublayers are MoE layers.

Pre-norm residual blocks, learned absolute positions, tied input/output
embeddings. The MoE sublayer is either the baseline sparse layer (with
optional frozen-router or two-stage behavior) or the two-path stochastic
layer, chosen by the ``variant`` field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moe import MoeAux, S2MoeLayer, SmoeLayer
from .routing import VARIANTS
from .stochastic import RngStream
from .tensor import Tensor, add, causal_attention, gather_rows, layernorm, matmul, mul, transpose


@dataclass
class ModelConfig:
    n_layers: int = 4
    d_model: int = 256
    n_heads: int = 8
    d_exp: int = 512
    n_experts: int = 16
    k_train: int = 2
    k_eval: int = 2
    vocab_size: int = 257
    seq_len: int = 512
    dropout: float = 0.1
    variant: str = "smoe"
    alpha: float = 0.01
    beta: float = 0.1
    tau_u: float = 1.0
    d_low: int = 8
    stage_boundary: int | None = None
    seed: int = 0
    precision: str = "f32"  # f32 | f64

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 1 <= self.k_train <= self.n_experts or not 1 <= self.k_eval <= self.n_experts:
            raise ValueError("k must lie in [1, n_experts]")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant '{self.variant}'")
        if self.precision not in ("f32", "f64"):
            raise ValueError("precision must be f32 or f64")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


class Attention:
    """Multi-head causal self-attention with learned projections."""

    def __init__(self, d_model: int, n_heads: int, rng: RngStream, dtype):
        self.n_heads = n_heads
        s = 1.0 / np.sqrt(d_model)
        self.wq = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype), requires_grad=True)
        self.wk = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype), requires_grad=True)
        self.wv = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype), requires_grad=True)
        self.wo = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype), requires_grad=True)

    def parameters(self):
        return [("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)]

    def forward(self, x: Tensor) -> Tensor:
        q, k, v = matmul(x, self.wq), matmul(x, self.wk), matmul(x, self.wv)
        return matmul(causal_attention(q, k, v, self.n_heads), self.wo)


class DecoderBlock:
    """Pre-norm block: x + attn(ln(x)); then x + moe(ln(x))."""

    def __init__(self, cfg: ModelConfig, layer_idx: int):
        dtype = cfg.dtype
        # one init stream per parameter group, so variants that add or skip
        # parameters (blend gate, xmoe extras) do not shift the shared draws
        base = cfg.seed << 8
        rng_attn = RngStream(base + 16 + layer_idx)
        rng_router = RngStream(base + 48 + layer_idx)
        rng_experts = RngStream(base + 80 + layer_idx)
        rng_blend = RngStream(base + 112 + layer_idx)
        self.attn = Attention(cfg.d_model, cfg.n_heads, rng_attn, dtype)
        self.ln1_g = Tensor(np.ones(cfg.d_model, dtype=dtype), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(cfg.d_model, dtype=dtype), requires_grad=True)
        self.ln2_g = Tensor(np.ones(cfg.d_model, dtype=dtype), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(cfg.d_model, dtype=dtype), requires_grad=True)
        if cfg.variant == "s2moe":
            self.moe = S2MoeLayer(cfg.d_model, cfg.n_experts, cfg.d_exp, rng_experts,
                                  dtype=dtype, rng_router=rng_router, rng_blend=rng_blend)
        else:
            self.moe = SmoeLayer(cfg.d_model, cfg.n_experts, cfg.d_exp, rng_experts,
                                 variant=cfg.variant, dtype=dtype, d_low=cfg.d_low,
                                 stage_boundary=cfg.stage_boundary,
                                 frozen_seed=base + 144 + layer_idx,
                                 rng_router=rng_router)
        self.dropout = cfg.dropout
        self.is_stochastic = cfg.variant == "s2moe"

    def parameters(self):
        named = [(f"attn.{n}", t) for n, t in self.attn.parameters()]
        named += [("ln1.g", self.ln1_g), ("ln1.b", self.ln1_b),
                  ("ln2.g", self.ln2_g), ("ln2.b", self.ln2_b)]
        named += [(f"moe.{n}", t) for n, t in self.moe.parameters()]
        return named

    def forward(self, x: Tensor, k: int, train: bool, rng: RngStream | None) -> tuple[Tensor, MoeAux]:
        a = self.attn.forward(_affine_norm(x, self.ln1_g, self.ln1_b))
        x = add(x, _dropout(a, self.dropout, train, rng))
        h = _affine_norm(x, self.ln2_g, self.ln2_b)
        if self.is_stochastic:
            m, aux = self.moe.forward(h, k, train=train, rng=rng)
        else:
            m, aux = self.moe.forward(h, k, train=train)
        x = add(x, _dropout(m, self.dropout, train, rng))
        return x, aux


def _affine_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    return add(mul(layernorm(x), g), b)


def _dropout(x: Tensor, p: float, train: bool, rng: RngStream | None) -> Tensor:
    """Inverted dropout at rate p; the identity at eval or without a stream."""
    if not train or p <= 0.0 or rng is None:
        return x
    keep = 1.0 - p
    mask = (rng.uniform(x.shape) < keep).astype(x.dtype) / keep
    return mul(x, Tensor(mask))


class LanguageModel:
    """Decoder stack with MoE FFNs and configurable inference-time k."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        dtype = cfg.dtype
        rng = RngStream((cfg.seed << 8) + 1)
        self.embed = Tensor(rng.normal((cfg.vocab_size, cfg.d_model), scale=0.01).astype(dtype),
                            requires_grad=True)
        self.pos = Tensor(rng.normal((cfg.seq_len, cfg.d_model), scale=0.01).astype(dtype),
                          requires_grad=True)
        self.blocks = [DecoderBlock(cfg, i) for i in range(cfg.n_layers)]
        self.lnf_g = Tensor(np.ones(cfg.d_model, dtype=dtype), requires_grad=True)
        self.lnf_b = Tensor(np.zeros(cfg.d_model, dtype=dtype), requires_grad=True)
        self.k_eval = cfg.k_eval

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [("embed", self.embed), ("pos", self.pos)]
        for i, blk in enumerate(self.blocks):
            named += [(f"layer{i}.{n}", t) for n, t in blk.parameters()]
        named += [("lnf.g", self.lnf_g), ("lnf.b", self.lnf_b)]
        return named

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()

    def set_inference_k(self, k: int) -> None:
        """Route with k experts in subsequent eval-mode forwards."""
        if not 1 <= k <= self.cfg.n_experts:
            raise ValueError(f"k={k} out of range [1, {self.cfg.n_experts}]")
        self.k_eval = k

    def lm_forward(self, tokens: np.ndarray, mode: str = "train",
                   rng: RngStream | None = None, k: int | None = None) -> tuple[Tensor, list[MoeAux]]:
        """Logits (B, T, V) plus per-layer routing/pooled auxiliaries."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode '{mode}'")
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError("tokens must be (B, T)")
        b, t = tokens.shape
        if t > self.cfg.seq_len:
            raise ValueError(f"sequence length {t} exceeds seq_len {self.cfg.seq_len}")
        if tokens.max(initial=0) >= self.cfg.vocab_size:
            raise ValueError("token id out of vocabulary")
        train = mode == "train"
        if k is None:
            k = self.cfg.k_train if train else self.k_eval

        x = add(gather_rows(self.embed, tokens), gather_rows(self.pos, np.arange(t)))
        x = _dropout(x, self.cfg.dropout, train, rng)

        auxes: list[MoeAux] = []
        for blk in self.blocks:
            x, aux = blk.forward(x, k, train, rng)
            auxes.append(aux)
        h = _affine_norm(x, self.lnf_g, self.lnf_b)
        logits = matmul(h, transpose(self.embed, (1, 0)))
        return logits, auxes
