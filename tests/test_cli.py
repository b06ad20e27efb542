"""CLI surface tests: subcommands, exit codes, printed reports."""

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from s2moe.checkpoint import load_checkpoint, save_checkpoint
from s2moe.cli import cli
from s2moe.model import ModelConfig
from s2moe.routing import VARIANTS
from s2moe.train import metrics_equal, parse_metrics, train

from conftest import dtype_code_offset, tiny_run_config


@pytest.fixture()
def tiny_config_file(small_corpus, tmp_path):
    def write(name, **overrides):
        cfg = tiny_run_config(small_corpus, tmp_path / name, **overrides)
        path = tmp_path / f"{name}.cfg"
        path.write_text(cfg.to_text())
        return str(path), cfg
    return write


class TestFlops:
    def test_reduction_printed_in_bracket(self, capsys):
        assert cli(["flops", "--preset", "paper-base", "--k", "1"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"reduction_vs_k2 = ([-\d.]+)%", out)
        assert match, out
        assert 24.0 <= float(match.group(1)) <= 33.0
        assert "per_token.total" in out

    def test_k2_reduction_is_zero(self, capsys):
        assert cli(["flops", "--preset", "paper-base", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "reduction_vs_k2 = 0.00%" in out

    def test_one_expert_config_prints_no_k2_reduction(self, tmp_path, capsys):
        path = tmp_path / "one.cfg"
        path.write_text("preset = 'desk'\nn_experts = 1\nk_train = 1\nk_eval = 1\n")
        assert cli(["flops", "--config", str(path), "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "per_token.total" in out and "reduction_vs_k2" not in out

    def test_out_of_range_k_is_usage_error(self, capsys):
        assert cli(["flops", "--preset", "paper-base", "--k", "99"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli(["flops", "--preset", "paper-base", "--k", "1", "--what"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        assert cli(["frobnicate"]) == 1


class TestMalformedConfig:
    @pytest.mark.parametrize("text, where", [
        ("nonsense_key = 3\n", "config line 1: unknown key 'nonsense_key'"),
        ("# widths\nn_layers = abc\n", "config line 2: key 'n_layers': invalid literal"),
        ("preset = 'nope'\n", "config line 1: key 'preset': unknown preset 'nope'"),
        ("steps = 5\ncorpus = 'a\n", "config line 2: key 'corpus': 'a is not one quoted string"),
    ])
    def test_is_usage_error_naming_line_and_key(self, text, where, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli(["flops", "--config", str(path), "--k", "1"]) == 1
        assert f"usage error: {path}: {where}" in capsys.readouterr().err

    def test_values_the_model_rejects_are_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "heads.cfg"
        path.write_text("d_model = 256\nn_heads = 3\n")
        assert cli(["flops", "--config", str(path), "--k", "1"]) == 1
        assert "usage error: d_model 256 not divisible by n_heads 3" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("batch_size", 0), ("eval_interval", 0),
                                            ("ckpt_interval", 0), ("steps", -3)])
    def test_run_loop_value_below_minimum_is_usage_error(self, key, value, tiny_config_file, capsys):
        path, cfg = tiny_config_file("bad", **{key: value})
        assert cli(["train", "--config", path]) == 1
        assert f"usage error: {key} = {value} must be at least" in capsys.readouterr().err
        with pytest.raises(ValueError, match=f"^{key} = {value} must be at least"):
            train(cfg)
        assert not os.path.exists(cfg.out_dir)

    @pytest.mark.parametrize("key, value, rule", [
        ("lr", -0.001, "must be positive"), ("lr", 0.0, "must be positive"), ("lr", math.nan, "must be positive"),
        ("grad_clip", -0.25, "must be positive"), ("grad_clip", 0.0, "must be positive"),
        ("grad_clip", math.nan, "must be positive"), ("eps_adam", 0.0, "must be positive"),
        ("beta1", 1.5, "must lie in [0, 1)"), ("beta1", 1.0, "must lie in [0, 1)"),
        ("beta1", -0.1, "must lie in [0, 1)"), ("beta2", 1.0, "must lie in [0, 1)"),
        ("beta2", math.nan, "must lie in [0, 1)"),
    ])
    def test_optimizer_value_that_reverses_or_stops_training_is_usage_error(self, key, value, rule,
                                                                             tiny_config_file, capsys):
        """A negative clip or step climbs the loss and a zero one freezes it;
        each is refused before ``out_dir`` exists, NaN included."""
        path, cfg = tiny_config_file("bad", **{key: value})
        assert cli(["train", "--config", path]) == 1
        assert f"usage error: {key} = {value} {rule}" in capsys.readouterr().err
        with pytest.raises(ValueError, match=f"^{re.escape(f'{key} = {value} {rule}')}$"):
            train(cfg)
        assert not os.path.exists(cfg.out_dir)

    @pytest.mark.parametrize("key, value, rule", [
        ("n_layers", 0, "must be at least 1"), ("d_model", 0, "must be at least 1"),
        ("n_heads", 0, "must be at least 1"), ("d_exp", 0, "must be at least 1"),
        ("seq_len", 0, "must be at least 1"), ("dropout", 1.0, "must lie in [0, 1)"),
        ("dropout", -0.1, "must lie in [0, 1)"),
        ("dropout", 0.999999, "must be at most 1 - 2**-17, or its 16-bit keep threshold rounds to 0"),
        ("alpha", -0.1, "must be at least 0"),
        ("beta", -0.5, "must be at least 0"), ("tau_u", 0.0, "must be positive"),
        ("d_low", 0, "must be at least 1"), ("d_low", -2, "must be at least 1"),
        ("seed", -1, "must lie in [0, 2**120)"), ("seed", 2**120, "must lie in [0, 2**120)"),
    ])
    def test_model_value_out_of_range_is_usage_error(self, key, value, rule, tiny_config_file, capsys):
        path, cfg = tiny_config_file("bad", **{key: value})
        assert cli(["train", "--config", path]) == 1
        assert f"usage error: {key} = {value} {rule}" in capsys.readouterr().err
        with pytest.raises(ValueError, match=f"^{re.escape(f'{key} = {value} {rule}')}$"):
            train(cfg)
        assert not os.path.exists(cfg.out_dir)
        assert cli(["flops", "--config", path, "--k", "1"]) == 1

    def test_xmoe_low_width_not_below_model_width_is_usage_error(self, tiny_config_file, capsys):
        """Refused when the config is checked, before ``out_dir`` exists, not
        when the router is built; other variants do not use ``d_low``."""
        path, cfg = tiny_config_file("bad", variant="xmoe", d_low=32)
        rule = "d_low = 32 must be below d_model = 32 for xmoe"
        assert cli(["train", "--config", path]) == 1
        assert f"usage error: {rule}" in capsys.readouterr().err
        with pytest.raises(ValueError, match=f"^{rule}$"):
            train(cfg)
        assert not os.path.exists(cfg.out_dir)
        assert cli(["flops", "--config", path, "--k", "1"]) == 1
        ModelConfig(d_model=32, d_low=32)

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        assert cli(["flops", "--config", str(tmp_path / "absent.cfg"), "--k", "1"]) == 2
        assert "absent.cfg" in capsys.readouterr().err


class TestTrainEval:
    def test_train_twice_identical_metrics(self, tiny_config_file, capsys):
        path_a, cfg_a = tiny_config_file("runa", seed=7, steps=4)
        path_b, cfg_b = tiny_config_file("runb", seed=7, steps=4)
        assert cli(["train", "--config", path_a]) == 0
        assert cli(["train", "--config", path_b]) == 0
        assert metrics_equal(cfg_a.out_dir + "/metrics.csv", cfg_b.out_dir + "/metrics.csv")

    def test_train_without_corpus_is_usage_error(self, capsys):
        assert cli(["train", "--preset", "desk", "--corpus", ""]) == 1

    def test_eval_and_exit_codes(self, tiny_config_file, capsys):
        path, cfg = tiny_config_file("reval", steps=3)
        assert cli(["train", "--config", path]) == 0
        capsys.readouterr()
        ckpt = cfg.out_dir + "/ckpt-final.bin"
        assert cli(["eval", "--ckpt", ckpt, "--k", "2", "--split", "val"]) == 0
        out = capsys.readouterr().out
        assert "bpc = " in out and "[collapse]" in out and "[flops]" in out

        assert cli(["eval", "--ckpt", ckpt, "--k", "17", "--split", "val"]) == 1
        assert cli(["eval", "--ckpt", ckpt, "--k", "2", "--split", "train"]) == 1
        assert cli(["eval", "--ckpt", "/nonexistent.bin", "--k", "2", "--split", "val"]) == 2

    def test_eval_of_nonfinite_checkpoint_names_the_op(self, tiny_config_file, capsys):
        path, cfg = tiny_config_file("rnan", steps=3)
        assert cli(["train", "--config", path]) == 0
        ckpt = cfg.out_dir + "/ckpt-final.bin"
        ck = load_checkpoint(ckpt)
        dict(ck.tensors)["lnf.b"][:] = np.nan
        save_checkpoint(ckpt, ck)
        capsys.readouterr()
        assert cli(["eval", "--ckpt", ckpt, "--k", "2", "--split", "val"]) == 2
        assert "error: op 'affine-layer-norm' produced non-finite values" in capsys.readouterr().err

    def test_eval_of_diverged_checkpoint_prints_inf_perplexity(self, tiny_config_file, capsys):
        path, cfg = tiny_config_file("rdiverged", steps=1)
        assert cli(["train", "--config", path]) == 0
        ckpt = cfg.out_dir + "/ckpt-final.bin"
        ck = load_checkpoint(ckpt)
        dict(ck.tensors)["embed"][:] *= 1e4  # logits past exp's float range
        save_checkpoint(ckpt, ck)
        capsys.readouterr()
        assert cli(["eval", "--ckpt", ckpt, "--k", "2", "--split", "val"]) == 0
        out = capsys.readouterr().out
        assert "ppl = inf\n" in out
        assert float(re.search(r"bpc = (\S+)", out).group(1)) > 710 / np.log(2)

    def test_router_with_zero_probabilities_logs_and_evaluates(self, tiny_config_file, capsys):
        # lr = 10 drives the f32 router to probabilities of exactly 0
        path, cfg = tiny_config_file("rzero", steps=4, lr=10.0, eval_interval=1)
        assert cli(["train", "--config", path]) == 0
        rows = parse_metrics(cfg.out_dir + "/metrics.csv")
        assert len(rows) == 4 and all(math.isfinite(r.router_entropy) for r in rows)
        capsys.readouterr()
        assert cli(["eval", "--ckpt", cfg.out_dir + "/ckpt-final.bin", "--k", "2", "--split", "val"]) == 0
        assert math.isfinite(float(re.search(r"router_entropy_nats = (\S+)", capsys.readouterr().out).group(1)))

    def test_eval_of_checkpoint_with_unknown_dtype_code_is_runtime_error(self, tiny_config_file, capsys):
        path, cfg = tiny_config_file("rdtype", steps=1)
        assert cli(["train", "--config", path]) == 0
        ckpt = cfg.out_dir + "/ckpt-final.bin"
        blob = bytearray(Path(ckpt).read_bytes())
        blob[dtype_code_offset(load_checkpoint(ckpt))] = 7
        Path(ckpt).write_bytes(bytes(blob))
        capsys.readouterr()
        assert cli(["eval", "--ckpt", ckpt, "--k", "2", "--split", "val"]) == 2
        assert capsys.readouterr().err == f"error: checkpoint '{ckpt}' tensor 'embed' has unknown dtype code 7\n"

    def test_probe_prints_reports(self, tiny_config_file, capsys):
        path, cfg = tiny_config_file("rprobe", steps=3)
        assert cli(["train", "--config", path]) == 0
        capsys.readouterr()
        ckpt = cfg.out_dir + "/ckpt-final.bin"
        assert cli(["probe", "--ckpt", ckpt, "--layer", "0"]) == 0
        out = capsys.readouterr().out
        assert "[jacobian]" in out and "rank = " in out and "[collapse]" in out
        assert cli(["probe", "--ckpt", ckpt, "--layer", "5"]) == 1


class TestVariants:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_is_accepted(self, variant, tiny_config_file, capsys):
        assert ModelConfig(variant=variant).variant == variant
        path, _ = tiny_config_file(f"v-{variant}", steps=1)
        assert cli(["train", "--config", path, "--variant", variant]) == 0

    def test_unknown_variant_is_usage_error(self, tiny_config_file, capsys):
        path, _ = tiny_config_file("v-unknown", steps=1)
        assert cli(["train", "--config", path, "--variant", "moe"]) == 1
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(ValueError):
            ModelConfig(variant="moe")
