import dataclasses

import pytest

from s2moe.config import preset
from s2moe.data import make_synthetic_corpus


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """~200 KB deterministic synthetic corpus shared across harness tests."""
    path = tmp_path_factory.mktemp("corpus") / "small.txt"
    make_synthetic_corpus(str(path), n_bytes=200_000, seed=11)
    return str(path)


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    """The 1 MB corpus used by the desk-scale acceptance run."""
    path = tmp_path_factory.mktemp("corpus") / "desk.txt"
    make_synthetic_corpus(str(path), n_bytes=1_000_000, seed=7)
    return str(path)


def tiny_run_config(corpus, out_dir, **overrides):
    """A fast shrunken config for harness mechanics tests."""
    cfg = preset("desk")
    cfg = dataclasses.replace(
        cfg, n_layers=1, d_model=32, n_heads=2, d_exp=16, n_experts=4,
        seq_len=32, batch_size=4, steps=6, eval_interval=2, ckpt_interval=3,
        corpus=corpus, out_dir=str(out_dir), lr=1e-3,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def dtype_code_offset(ckpt):
    """Byte offset of the first tensor's dtype code in the file ``ckpt`` saves to
    (layout in ``s2moe.checkpoint``)."""
    offset = 8 + 4 + 4 + len(ckpt.config_text.encode("utf-8")) + 8 + 4
    return offset + 4 + 2 + len(ckpt.tensors[0][0].encode("utf-8"))
