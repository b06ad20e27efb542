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
from .stochastic import MAX_LAYERS, RngStream, keep_threshold, stream
from .tensor import Tensor, add, add_mul, affine_layer_norm, causal_attention, gather_rows, matmul, matmuls, transpose


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
        # comparisons written so that a NaN is refused too
        for key in ("n_layers", "d_model", "n_heads", "d_exp", "seq_len"):
            if not getattr(self, key) >= 1:
                raise ValueError(f"{key} = {getattr(self, key)} must be at least 1")
        if not self.n_layers <= MAX_LAYERS:  # a deeper layer's init streams would reuse another group's keys
            raise ValueError(f"n_layers = {self.n_layers} must be at most {MAX_LAYERS}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout = {self.dropout} must lie in [0, 1)")
        if keep_threshold(1.0 - self.dropout) < 1:  # its scale 2**16 / t would divide by zero
            raise ValueError(f"dropout = {self.dropout} must be at most 1 - 2**-17, "
                             "or its 16-bit keep threshold rounds to 0")
        for key in ("alpha", "beta"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} = {getattr(self, key)} must be at least 0")
        if not self.tau_u > 0:
            raise ValueError(f"tau_u = {self.tau_u} must be positive")
        if not self.d_low >= 1:
            raise ValueError(f"d_low = {self.d_low} must be at least 1")
        if not 0 <= self.seed < 2**120:  # a stream's key is seed * 256 + offset, and Philox's key has 128 bits
            raise ValueError(f"seed = {self.seed} must lie in [0, 2**120)")
        if self.variant == "xmoe" and not self.d_low < self.d_model:
            raise ValueError(f"d_low = {self.d_low} must be below d_model = {self.d_model} for xmoe")
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
        self.wq = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype, copy=False), requires_grad=True)
        self.wk = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype, copy=False), requires_grad=True)
        self.wv = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype, copy=False), requires_grad=True)
        self.wo = Tensor(rng.normal((d_model, d_model), scale=s).astype(dtype, copy=False), requires_grad=True)

    def parameters(self):
        return [("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)]

    def forward(self, x: Tensor) -> Tensor:
        q, k, v = matmuls(x, (self.wq, self.wk, self.wv))
        return matmul(causal_attention(q, k, v, self.n_heads), self.wo)


class _Unset:
    """Stands in for an init stream when every parameter will be set from a
    checkpoint: each "draw" is a read-only array of the asked shape and the
    model's dtype over one shared zero, so it costs no draw, write or memory."""

    def __init__(self, dtype):
        self.dtype = dtype

    def normal(self, shape, loc=0.0, scale=1.0) -> np.ndarray:
        return np.broadcast_to(np.zeros((), dtype=self.dtype), shape)


def _init_stream(cfg: ModelConfig, name: str, init: bool, layer: int = 0):
    return stream(cfg.seed, name, layer) if init else _Unset(cfg.dtype)


class DecoderBlock:
    """Pre-norm block: x + attn(ln(x)); then x + moe(ln(x))."""

    def __init__(self, cfg: ModelConfig, layer_idx: int, init: bool = True):
        dtype = cfg.dtype
        router = "frozen-router" if cfg.variant == "smoe-dropout" else "router"
        rng_attn, rng_router, rng_experts, rng_blend = (
            _init_stream(cfg, name, init, layer_idx) for name in ("attn", router, "experts", "blend"))
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
                                 rng_router=rng_router)
        self.dropout = cfg.dropout

    def parameters(self):
        named = [(f"attn.{n}", t) for n, t in self.attn.parameters()]
        named += [("ln1.g", self.ln1_g), ("ln1.b", self.ln1_b),
                  ("ln2.g", self.ln2_g), ("ln2.b", self.ln2_b)]
        named += [(f"moe.{n}", t) for n, t in self.moe.parameters()]
        return named

    def forward(self, x: Tensor, k: int, rng: RngStream | None) -> tuple[Tensor, MoeAux]:
        a = self.attn.forward(affine_layer_norm(x, self.ln1_g, self.ln1_b))
        x = _residual_dropout(x, a, self.dropout, rng)
        # no name here holds the normed input, so the two-path layer can let it go once stacked
        m, aux = self.moe.forward(affine_layer_norm(x, self.ln2_g, self.ln2_b), k, rng)
        x = _residual_dropout(x, m, self.dropout, rng)
        return x, aux


def _dropout_mask(x: Tensor, p: float, rng: RngStream | None) -> tuple[np.ndarray, np.floating] | None:
    """An inverted-dropout keep-mask at rate p for x, as a bool array that
    keeps each position with probability t / 2**16 for t the 16-bit
    threshold of ``1 - p`` (``RngStream.keep_mask``), and the dtype's
    ``2**16 / t``; None without a stream."""
    if p <= 0.0 or rng is None:
        return None
    t = keep_threshold(1.0 - p)
    return rng.keep_mask(x.shape, t), x.dtype.type(2 ** 16) / x.dtype.type(t)


def _dropout(x: Tensor, p: float, rng: RngStream | None) -> Tensor:
    """Inverted dropout at rate p; the identity without a stream."""
    drop = _dropout_mask(x, p, rng)
    return x if drop is None else add_mul(None, x, *drop)


def _residual_dropout(x: Tensor, a: Tensor, p: float, rng: RngStream | None) -> Tensor:
    """``x + dropout(a)`` as one op."""
    drop = _dropout_mask(a, p, rng)
    return add(x, a) if drop is None else add_mul(x, a, *drop)


class LanguageModel:
    """Decoder stack with MoE FFNs; each forward routes at the k it is given.

    With ``init`` off, nothing is drawn: every drawn parameter is a read-only
    placeholder of its shape and dtype, for a caller that sets every
    parameter next (``apply_tensors`` from a checkpoint).
    """

    def __init__(self, cfg: ModelConfig, init: bool = True):
        self.cfg = cfg
        dtype = cfg.dtype
        rng = _init_stream(cfg, "embed", init)
        self.embed = Tensor(rng.normal((cfg.vocab_size, cfg.d_model), scale=0.01).astype(dtype, copy=False),
                            requires_grad=True)
        self.pos = Tensor(rng.normal((cfg.seq_len, cfg.d_model), scale=0.01).astype(dtype, copy=False),
                          requires_grad=True)
        self.blocks = [DecoderBlock(cfg, i, init) for i in range(cfg.n_layers)]
        self.lnf_g = Tensor(np.ones(cfg.d_model, dtype=dtype), requires_grad=True)
        self.lnf_b = Tensor(np.zeros(cfg.d_model, dtype=dtype), requires_grad=True)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [("embed", self.embed), ("pos", self.pos)]
        for i, blk in enumerate(self.blocks):
            named += [(f"layer{i}.{n}", t) for n, t in blk.parameters()]
        named += [("lnf.g", self.lnf_g), ("lnf.b", self.lnf_b)]
        return named

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()

    def lm_forward(self, tokens: np.ndarray, mode: str = "train",
                   rng: RngStream | None = None, k: int | None = None) -> tuple[Tensor, list[MoeAux]]:
        """Logits (B, T, V) plus per-layer routing/pooled auxiliaries, routed at
        k experts per token (default ``cfg.k_train`` in train mode, ``cfg.k_eval`` in eval).
        Train mode draws dropout and noise from ``rng``, which it needs; eval draws nothing."""
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
        if train and rng is None:
            raise ValueError("a train-mode forward needs an RngStream")
        if k is None:
            k = self.cfg.k_train if train else self.cfg.k_eval
        rng = rng if train else None

        x = add(gather_rows(self.embed, tokens), gather_rows(self.pos, np.arange(t)))
        x = _dropout(x, self.cfg.dropout, rng)

        auxes: list[MoeAux] = []
        for blk in self.blocks:
            x, aux = blk.forward(x, k, rng)
            auxes.append(aux)
        h = affine_layer_norm(x, self.lnf_g, self.lnf_b)
        logits = matmul(h, transpose(self.embed, (1, 0)))
        return logits, auxes
