"""Run configuration: presets, flat key=value config files, serialization.

The config file format is one ``key = value`` per line; ``#`` outside quotes
starts a comment. A quoted value is read as a Python string literal, so the
echo of any string round-trips. Unknown keys are rejected. The same text format is echoed into
checkpoints so a run can be reconstructed from its artifact alone.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass

from .model import ModelConfig

PRESETS = ("paper-base", "desk")


@dataclass
class RunConfig(ModelConfig):
    """A ModelConfig plus the run's data, optimizer and bookkeeping fields."""

    stage_boundary: int = -1          # -1: steps // 2 for stablemoe
    # run
    preset: str = "paper-base"
    corpus: str = ""
    batch_size: int = 48
    steps: int = 100_000
    lr: float = 2.5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    grad_clip: float = 0.25
    eval_interval: int = 1000
    ckpt_interval: int = 10_000
    out_dir: str = "runs/out"
    split_train: float = 0.9
    split_val: float = 0.05
    split_test: float = 0.05

    def model_config(self) -> ModelConfig:
        """The model's fields as a ``ModelConfig``, which checks them, after the run loop's checks."""
        for key, low in (("batch_size", 1), ("eval_interval", 1), ("ckpt_interval", 1), ("steps", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} = {getattr(self, key)} must be at least {low}")
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(ModelConfig)}
        if self.stage_boundary < 0:
            fields["stage_boundary"] = self.steps // 2
        return ModelConfig(**fields)

    @property
    def splits(self) -> tuple[float, float, float]:
        return (self.split_train, self.split_val, self.split_test)

    def to_text(self) -> str:
        # repr round-trips floats exactly and quotes strings
        return "".join(f"{f.name} = {getattr(self, f.name)!r}\n" for f in dataclasses.fields(self))


def preset(name: str) -> RunConfig:
    """Named baseline configurations."""
    if name == "paper-base":
        return RunConfig(preset=name)
    if name == "desk":
        return RunConfig(
            preset=name, n_layers=2, d_model=128, n_heads=4, d_exp=256,
            n_experts=8, k_train=2, k_eval=2, seq_len=128, steps=2000,
            batch_size=8, lr=1e-3, eval_interval=100, ckpt_interval=500,
            out_dir="runs/desk",
        )
    raise ValueError(f"unknown preset '{name}' (choose from {PRESETS})")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce_value(name: str, raw: str):
    f = _FIELDS[name]
    raw = raw.strip()
    if f.type in ("int", int):
        return int(raw)
    if f.type in ("float", float):
        return float(raw)
    if raw.startswith(("'", '"')):
        try:
            value = ast.literal_eval(raw)
        except (SyntaxError, ValueError):
            value = None
        if not isinstance(value, str):
            raise ValueError(f"{raw} is not one quoted string")
        return value
    return raw


def _uncomment(line: str) -> str:
    """``line`` up to its first ``#`` outside a quoted string."""
    quote, escaped = None, False
    for i, ch in enumerate(line):
        if quote is None:
            if ch == "#":
                return line[:i]
            if ch in "'\"":
                quote = ch
        elif escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == quote:
            quote = None
    return line


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Apply key=value lines on top of ``base``.

    A ``preset`` key, if present, establishes the baseline first; remaining
    keys override it in file order.
    """
    pairs: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = _uncomment(line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got '{line}'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key != "preset" and key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key '{key}'")
        pairs.append((lineno, key, raw))

    cfg = dataclasses.replace(base) if base is not None else preset("paper-base")
    presets_first = [p for p in pairs if p[1] == "preset"] + [p for p in pairs if p[1] != "preset"]
    for lineno, key, raw in presets_first:
        try:
            value = _coerce_value(key, raw)
            if key == "preset":
                cfg = preset(value)
            else:
                setattr(cfg, key, value)
        except ValueError as err:
            raise ValueError(f"config line {lineno}: key '{key}': {err}") from None
    return cfg


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)
