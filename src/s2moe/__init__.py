"""Sparse mixture-of-experts layers that learn from clean and noise-augmented
inputs, with baseline routing variants, collapse diagnostics, a FLOPs
accountant, and a small byte-level language-model training harness.
"""

from .tensor import Tape, Tensor, backward, grad_check
from .routing import make_router, route, topk_mask
from .experts import ExpertBank, moe_combine
from .stochastic import RngStream, compute_batch_stats, perturb
from .moe import S2MoeLayer, SmoeLayer
from .losses import PooledPair, balance_loss, task_loss, total_loss, uncertainty_loss
from .model import ModelConfig
from .data import make_synthetic_corpus
from .config import preset
from .train import train

__version__ = "0.1.0"
