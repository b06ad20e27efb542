"""Sparse mixture-of-experts layers that learn from clean and noise-augmented
inputs, with baseline routing variants, collapse diagnostics, a FLOPs
accountant, and a small byte-level language-model training harness.
"""

from .tensor import (
    Tensor,
    Tape,
    backward,
    grad_check,
    set_nan_guard,
    TensorError,
    ShapeError,
    NonFiniteError,
    GraphError,
)
from .routing import (
    RouterParams,
    RouterDecision,
    make_router,
    route,
    topk_mask,
    dropout_schedule_k,
    stablemoe_update,
)
from .experts import ExpertBank, moe_combine
from .stochastic import (
    NoiseStats,
    RngStream,
    BlendGateParams,
    compute_batch_stats,
    perturb,
    blend_gate,
    make_blend_gate,
)
from .moe import SmoeLayer, S2MoeLayer, MoeAux
from .losses import (
    PooledPair,
    task_loss,
    balance_loss,
    uncertainty_loss,
    total_loss,
)
from .model import ModelConfig, LanguageModel, DecoderBlock, Attention
from .diagnostics import (
    JacobianReport,
    CollapseReport,
    FlopsReport,
    jacobian_probe,
    collapse_metrics,
    flops_per_token,
    gini,
)
from .data import Corpus, ingest_corpus, make_synthetic_corpus, pair_count
from .config import RunConfig, preset, load_config, parse_config_text
from .checkpoint import Checkpoint, save_checkpoint, load_checkpoint, apply_tensors
from .train import (
    Adam,
    MetricsRow,
    TrainAbort,
    TrainResult,
    EvalResult,
    train,
    evaluate_model,
    evaluate_checkpoint,
    parse_metrics,
    metrics_equal,
)
from .cli import cli

__version__ = "0.1.0"
