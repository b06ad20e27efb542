"""Command-line surface: train, eval, probe, flops.

Exit codes: 0 success, 1 usage error (bad flags, out-of-range arguments,
malformed config), 2 runtime failure (missing files, a non-finite loss,
gradient or eval value).
"""

from __future__ import annotations

import argparse
import sys

from .config import PRESETS, RunConfig, load_config, preset
from .diagnostics import (
    collapse_metrics,
    flops_per_token,
    format_collapse_report,
    format_flops_report,
    format_jacobian_report,
    jacobian_probe,
)
from .routing import VARIANTS
from .stochastic import RngStream, compute_batch_stats
from .tensor import NonFiniteError, Tensor
from .train import TrainAbort, collapse_batch, evaluate_checkpoint, load_run, train

USAGE_ERROR, RUNTIME_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="s2moe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--preset", choices=PRESETS)
    p_train.add_argument("--variant", choices=VARIANTS)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--corpus", help="path to a byte corpus")
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--out", help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--k", type=int, required=True)
    p_eval.add_argument("--split", choices=("val", "test"), required=True)

    p_probe = sub.add_parser("probe", help="Jacobian and collapse reports for one layer")
    p_probe.add_argument("--ckpt", required=True)
    p_probe.add_argument("--layer", type=int, required=True)

    p_flops = sub.add_parser("flops", help="per-token MAC accounting")
    p_flops.add_argument("--config")
    p_flops.add_argument("--preset", choices=PRESETS)
    p_flops.add_argument("--k", type=int, required=True)
    p_flops.add_argument("--mode", choices=("train", "eval"), default="eval")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = preset(args.preset) if getattr(args, "preset", None) else None
    if getattr(args, "config", None):
        try:
            cfg = load_config(args.config, base=cfg)
        except ValueError as err:
            raise _UsageError(f"{args.config}: {err}") from None
    if cfg is None:
        cfg = preset("paper-base")
    for flag, field in (("variant", "variant"), ("seed", "seed"),
                        ("corpus", "corpus"), ("steps", "steps"), ("out", "out_dir")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, field, value)
    try:
        cfg.model_config()  # the model's own checks: head split, k range, precision
    except ValueError as err:
        raise _UsageError(str(err)) from None
    return cfg


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    if not cfg.corpus:
        raise _UsageError("train needs a corpus (config key 'corpus' or --corpus)")
    result = train(cfg, log=lambda msg: print(msg))
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"metrics: {result.metrics_path}")
    return 0


def _cmd_eval(args) -> int:
    try:
        result, cfg = evaluate_checkpoint(args.ckpt, k=args.k, split=args.split)
    except ValueError as err:
        if "out of range" in str(err):
            raise _UsageError(str(err))
        raise
    print("[eval]")
    print(f"split = {args.split}")
    print(f"k = {result.k}")
    print(f"bpc = {result.bpc!r}")
    print(f"ppl = {result.ppl!r}")
    print(f"n_tokens = {result.n_tokens}")
    if result.collapse is not None:
        print(format_collapse_report(result.collapse))
    print(format_flops_report(flops_per_token(cfg.model_config(), k=args.k)))
    return 0


def _cmd_probe(args) -> int:
    cfg, corpus, model = load_run(args.ckpt)
    if not 0 <= args.layer < cfg.n_layers:
        raise _UsageError(f"--layer {args.layer} out of range [0, {cfg.n_layers})")

    x = collapse_batch(corpus.val, cfg.seq_len, "val")
    _, auxes = model.lm_forward(x, mode="eval")
    layer = model.blocks[args.layer].moe
    acts = auxes[args.layer].moe_input.reshape(-1, cfg.d_model)
    stats = compute_batch_stats(Tensor(acts))

    report = None
    for token in range(acts.shape[0]):
        try:
            report = jacobian_probe(layer, acts[token], k=cfg.k_eval, stats=stats,
                                    noise_rng=RngStream((cfg.seed << 8) + 7))
            break
        except ValueError:
            continue
    if report is None:
        print("no probe point clear of top-k boundaries in this batch", file=sys.stderr)
        return RUNTIME_ERROR
    print(format_jacobian_report(report))
    print(format_collapse_report(collapse_metrics(model, x, cfg.k_eval)))
    return 0


def _cmd_flops(args) -> int:
    cfg = _config_from_args(args)
    mc = cfg.model_config()
    if not 0 <= args.k <= mc.n_experts:
        raise _UsageError(f"--k {args.k} out of range [0, {mc.n_experts}]")
    report = flops_per_token(mc, k=args.k, mode=args.mode)
    print(format_flops_report(report))
    if mc.n_experts >= 2:  # a one-expert config has no k = 2 to compare with
        base = flops_per_token(mc, k=2, mode=args.mode)
        print(f"reduction_vs_k2 = {100.0 * (base.total - report.total) / base.total:.2f}%")
    return 0


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "probe": _cmd_probe, "flops": _cmd_flops}


def cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except (ValueError, TrainAbort, NonFiniteError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return RUNTIME_ERROR


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
