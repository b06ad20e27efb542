"""Harness tests: ingestion, config, checkpoints, training, evaluation, CLI."""

import dataclasses
import importlib
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from s2moe.checkpoint import Checkpoint, apply_tensors, load_checkpoint, save_checkpoint
from s2moe.config import load_config, parse_config_text, preset
from s2moe.data import ingest_corpus
from s2moe.routing import VARIANTS
from s2moe.tensor import NonFiniteError, set_nan_guard
from s2moe.train import (
    TrainAbort,
    build_model,
    collapse_batch,
    evaluate_checkpoint,
    evaluate_model,
    load_run,
    metrics_equal,
    parse_metrics,
    train,
)

from conftest import dtype_code_offset, tiny_run_config

# ``s2moe.train`` is shadowed by the re-exported function of the same name
train_module = importlib.import_module("s2moe.train")


def _trace_router_requires_grad(monkeypatch):
    """Each training step's ``requires_grad`` of the first layer's router
    ``w_e``, read at the step's backward; pass the hook as ``model_hook``."""
    seen, models, real = [], [], train_module.backward

    def backward(loss):
        seen.append(models[0].blocks[0].moe.router.w_e.requires_grad)
        real(loss)

    monkeypatch.setattr(train_module, "backward", backward)
    return seen, models.append


def _router_bytes(out_dir, steps) -> list[bytes]:
    """The first layer's router ``w_e`` in the run's checkpoints at ``steps``."""
    paths = [os.path.join(out_dir, f"ckpt-{s:07d}.bin") for s in steps]
    return [dict(load_checkpoint(p).tensors)["layer0.moe.router.w_e"].tobytes() for p in paths]


class TestIngest:
    def test_abab_enumeration(self, tmp_path):
        path = tmp_path / "abab.txt"
        path.write_bytes(b"abab")
        corpus = ingest_corpus(str(path), splits=(1.0, 0.0, 0.0))
        assert corpus.vocab_bytes == [ord("a"), ord("b")]
        assert corpus.vocab_size == 3  # a, b, unk
        np.testing.assert_array_equal(corpus.train, [0, 1, 0, 1])

    def test_split_boundaries_integer_oracle(self, tmp_path):
        n = 1_000_000
        path = tmp_path / "mb.bin"
        path.write_bytes((bytes(range(256)) * (n // 256 + 1))[:n])
        corpus = ingest_corpus(str(path), splits=(0.9, 0.05, 0.05))
        # oracle: floor arithmetic
        assert len(corpus.train) == int(n * 0.9) == 900_000
        assert len(corpus.val) == int(n * 0.05) == 50_000
        assert len(corpus.test) == n - 900_000 - 50_000

    def test_reingest_is_identical(self, small_corpus):
        a = ingest_corpus(small_corpus)
        b = ingest_corpus(small_corpus)
        assert a.train.tobytes() == b.train.tobytes()
        assert a.val.tobytes() == b.val.tobytes()
        assert a.vocab_bytes == b.vocab_bytes

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            ingest_corpus(str(path))

    def test_unseen_byte_maps_to_unk(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_bytes(b"aaaaaaaa" + b"az")  # 'z' appears only in the tail
        corpus = ingest_corpus(str(path), splits=(0.8, 0.2, 0.0))
        assert corpus.vocab_bytes == [ord("a")]
        assert corpus.val.tolist() == [0, corpus.unk_id]

    def test_bad_splits_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"xyz")
        with pytest.raises(ValueError):
            ingest_corpus(str(path), splits=(0.5, 0.4, 0.2))


class TestConfig:
    def test_presets(self):
        base = preset("paper-base")
        assert (base.seq_len, base.lr, base.steps, base.batch_size) == (512, 2.5e-4, 100_000, 48)
        desk = preset("desk")
        assert (desk.n_layers, desk.d_model, desk.n_experts, desk.seq_len) == (2, 128, 8, 128)
        assert desk.steps <= 2000
        with pytest.raises(ValueError):
            preset("huge")

    def test_parse_overrides_and_preset_key(self, tmp_path):
        text = "preset = 'desk'\nvariant = s2moe  # comment\nsteps = 42\nlr = 0.005\n"
        cfg = parse_config_text(text)
        assert cfg.d_model == 128 and cfg.variant == "s2moe"
        assert cfg.steps == 42 and cfg.lr == 0.005
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert load_config(str(path)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_config_text("nonsense_key = 3\n")
        assert "nonsense_key" in str(err.value)

    def test_text_round_trip(self):
        cfg = preset("desk")
        cfg.variant = "xmoe"
        cfg.corpus = "/tmp/some corpus.txt"
        assert parse_config_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("path", ["/data/run#1/corpus.txt", "C:\\data\\corpus.txt",
                                      "/data/it's/corpus.txt", "/d/it's \"#2\"\\"],
                             ids=["hash", "backslash", "quote", "all"])
    def test_echo_round_trips_any_string(self, path):
        cfg = dataclasses.replace(preset("desk"), corpus=path, out_dir=path + ".out")
        assert parse_config_text(cfg.to_text()) == cfg

    def test_hash_is_a_comment_only_outside_quotes(self):
        cfg = parse_config_text("corpus = 'a#b'  # where\nout_dir = \"c#'d\"#\nvariant = xmoe # bare\n")
        assert (cfg.corpus, cfg.out_dir, cfg.variant) == ("a#b", "c#'d", "xmoe")

    def test_unterminated_quote_rejected(self):
        with pytest.raises(ValueError, match="corpus"):
            parse_config_text("corpus = 'a#b\n")


class TestCheckpoint:
    def make(self, tmp_path, dtype=np.float32):
        rng = np.random.default_rng(0)
        ck = Checkpoint(
            config_text=preset("desk").to_text(),
            step=17,
            tensors=[("w", rng.standard_normal((3, 4)).astype(dtype)),
                     ("b", rng.standard_normal(4).astype(dtype))],
        )
        path = tmp_path / "ck.bin"
        save_checkpoint(str(path), ck)
        return str(path), ck

    def test_round_trip_byte_identical(self, tmp_path):
        path, _ = self.make(tmp_path)
        loaded = load_checkpoint(path)
        again = tmp_path / "again.bin"
        save_checkpoint(str(again), loaded)
        assert open(path, "rb").read() == open(str(again), "rb").read()

    def test_fields_survive(self, tmp_path):
        path, ck = self.make(tmp_path, dtype=np.float64)
        loaded = load_checkpoint(path)
        assert loaded.step == 17
        assert loaded.config_text == ck.config_text
        for (na, a), (nb, b) in zip(ck.tensors, loaded.tensors):
            assert na == nb and a.tobytes() == b.tobytes() and a.dtype == b.dtype

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path, _ = self.make(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[8] = 99
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError) as err:
            load_checkpoint(str(bad))
        assert "version" in str(err.value)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path, ck = self.make(tmp_path)
        before = open(path, "rb").read()

        class TornFile:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        real_open = open
        monkeypatch.setattr(importlib.import_module("s2moe.checkpoint"), "open",
                            lambda file, mode="r", *a, **kw: TornFile(real_open(file, mode, *a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, dataclasses.replace(ck, step=18))
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["ck.bin"]

    def test_shape_mismatch_rejected(self, tmp_path):
        from s2moe.tensor import Tensor
        path, _ = self.make(tmp_path)
        ck = load_checkpoint(path)
        with pytest.raises(ValueError) as err:
            apply_tensors([("w", Tensor(np.zeros((2, 2))))], ck)
        assert "shape mismatch" in str(err.value)

    def rewrite(self, tmp_path, edit):
        """The checkpoint of ``make``, its bytes passed through ``edit``, at a new path."""
        path, ck = self.make(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(edit(bytearray(open(path, "rb").read()), ck))
        return str(bad)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        def set_code(blob, ck):
            assert blob[dtype_code_offset(ck)] == 0  # f32
            blob[dtype_code_offset(ck)] = 7
            return bytes(blob)

        bad = self.rewrite(tmp_path, set_code)
        with pytest.raises(ValueError, match=rf"^checkpoint '{re.escape(bad)}' tensor 'w' has unknown dtype code 7$"):
            load_checkpoint(bad)

    def test_truncated_file_rejected(self, tmp_path):
        bad = self.rewrite(tmp_path, lambda blob, ck: bytes(blob[:-3]))
        with pytest.raises(ValueError, match=rf"^checkpoint '{re.escape(bad)}' truncated at offset \d+$"):
            load_checkpoint(bad)

    def test_trailing_bytes_rejected(self, tmp_path):
        bad = self.rewrite(tmp_path, lambda blob, ck: bytes(blob) + b"\0\0")
        with pytest.raises(ValueError, match=rf"^checkpoint '{re.escape(bad)}' has 2 trailing bytes$"):
            load_checkpoint(bad)

    def test_missing_model_tensor_rejected(self, tmp_path):
        from s2moe.tensor import Tensor
        path, _ = self.make(tmp_path)
        with pytest.raises(ValueError, match="^checkpoint missing tensor 'absent'$"):
            apply_tensors([("w", Tensor(np.zeros((3, 4)))), ("absent", Tensor(np.zeros(2)))],
                          load_checkpoint(path))


    def test_older_rng_states_are_read_and_dropped(self, tmp_path):
        path, ck = self.make(tmp_path)
        blob = open(path, "rb").read()
        count_at = 8 + 4 + 4 + len(ck.config_text.encode("utf-8")) + 8
        assert blob[count_at: count_at + 4] == struct.pack("<I", 0)
        states = b"".join(struct.pack("<H", len(name)) + name + struct.pack("<QQ", seed, counter)
                          for name, seed, counter in ((b"batch", 99, 17), (b"forward", 100, 17 << 20)))
        older = tmp_path / "older.bin"
        older.write_bytes(blob[:count_at] + struct.pack("<I", 2) + states + blob[count_at + 4:])
        loaded = load_checkpoint(str(older))
        assert (loaded.config_text, loaded.step) == (ck.config_text, ck.step)
        assert [(n, a.dtype, a.tobytes()) for n, a in loaded.tensors] == \
            [(n, a.dtype, a.tobytes()) for n, a in ck.tensors]
        resaved = tmp_path / "resaved.bin"
        save_checkpoint(str(resaved), loaded)
        assert resaved.read_bytes() == blob


class TestTraining:
    def test_same_seed_identical_metrics(self, small_corpus, tmp_path):
        rows = []
        for run in ("a", "b"):
            cfg = tiny_run_config(small_corpus, tmp_path / run, seed=7)
            result = train(cfg)
            rows.append(result.metrics_path)
        assert metrics_equal(rows[0], rows[1])  # wall_ms excluded

    def test_metrics_file_parses_and_has_header(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "m")
        result = train(cfg)
        first = open(result.metrics_path).readline().strip()
        assert first == ("step,task_nats,bpc,balance,uncertainty,total,"
                         "router_entropy,expert_load_gini,k,wall_ms")
        rows = parse_metrics(result.metrics_path)
        assert rows[0].step == 0 and rows[-1].step == cfg.steps - 1
        assert all(math.isfinite(r.total) for r in rows)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_resume_matches_uninterrupted_at_f64(self, small_corpus, tmp_path, variant):
        # a stablemoe router freezes at step 2, before the checkpoint it resumes from
        common = dict(steps=8, ckpt_interval=4, precision="f64", seed=3, variant=variant, stage_boundary=2)
        full_cfg = tiny_run_config(small_corpus, tmp_path / "full", **common)
        full = train(full_cfg)

        # resume the mid-run checkpoint into a fresh directory
        part_cfg = tiny_run_config(small_corpus, tmp_path / "part", **common)
        resumed = train(part_cfg,
                        resume_from=os.path.join(full_cfg.out_dir, "ckpt-0000004.bin"))

        full_rows = {r.step: r for r in parse_metrics(full.metrics_path)}
        for row in parse_metrics(resumed.metrics_path):
            twin = full_rows[row.step]
            assert row.to_line().rsplit(",", 1)[0] == twin.to_line().rsplit(",", 1)[0]
        a = load_checkpoint(full.final_checkpoint)
        b = load_checkpoint(resumed.final_checkpoint)
        assert a.step == b.step == 8
        for (na, ta), (nb, tb) in zip(a.tensors, b.tensors):
            assert na == nb and ta.tobytes() == tb.tobytes(), na

    def test_resume_into_same_dir_keeps_one_row_per_step(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "same", steps=8,
                              ckpt_interval=4, precision="f64", seed=3)
        first = train(cfg)
        uninterrupted = str(tmp_path / "uninterrupted.csv")
        with open(uninterrupted, "w") as fh:
            fh.write(open(first.metrics_path).read())

        resumed = train(cfg, resume_from=os.path.join(cfg.out_dir, "ckpt-0000004.bin"))
        assert [r.step for r in parse_metrics(resumed.metrics_path)] == [0, 2, 4, 6, 7]
        # rows before the resume step are kept as written, the rest rewritten bitwise
        assert open(resumed.metrics_path).read().splitlines()[:3] == \
            open(uninterrupted).read().splitlines()[:3]
        assert metrics_equal(uninterrupted, resumed.metrics_path)

    @pytest.mark.parametrize("override", [{"lr": 0.5}, {"seed": 99}], ids=["lr", "seed"])
    def test_resume_refuses_mismatched_config(self, small_corpus, tmp_path, override):
        cfg = tiny_run_config(small_corpus, tmp_path / "run")
        train(cfg)
        changed = dataclasses.replace(cfg, out_dir=str(tmp_path / "resumed"), **override)
        with pytest.raises(ValueError) as err:
            train(changed, resume_from=os.path.join(cfg.out_dir, "ckpt-0000003.bin"))
        (name, value), = override.items()
        assert f"{name}: checkpoint {getattr(cfg, name)!r}, run {value!r}" in str(err.value)
        assert not os.path.exists(changed.out_dir)

    def test_resume_refuses_moved_stablemoe_boundary(self, small_corpus, tmp_path):
        # stage_boundary = -1 resolves to steps // 2: 3 for the checkpointed run
        cfg = tiny_run_config(small_corpus, tmp_path / "run", variant="stablemoe", steps=6)
        train(cfg)
        ckpt = os.path.join(cfg.out_dir, "ckpt-0000003.bin")
        longer = dataclasses.replace(cfg, out_dir=str(tmp_path / "resumed"), steps=10)
        with pytest.raises(ValueError, match=r"stage_boundary: checkpoint 3, run 5"):
            train(longer, resume_from=ckpt)
        assert not os.path.exists(longer.out_dir)
        # a steps change that keeps the resolved boundary may resume
        train(dataclasses.replace(longer, steps=7), resume_from=ckpt)

    def test_stablemoe_restored_frozen_past_boundary(self, small_corpus, tmp_path, monkeypatch):
        cfg = tiny_run_config(small_corpus, tmp_path / "sm", variant="stablemoe",
                              steps=6, stage_boundary=2, ckpt_interval=1)
        train(cfg)
        resumed_cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "sm-resumed"))
        trains, hook = _trace_router_requires_grad(monkeypatch)
        train(resumed_cfg, resume_from=os.path.join(cfg.out_dir, "ckpt-0000004.bin"), model_hook=hook)
        assert trains == [False, False]
        assert len(set(_router_bytes(resumed_cfg.out_dir, [5, 6]) + _router_bytes(cfg.out_dir, [2, 4]))) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda tensors: [(n, a) for n, a in tensors if not n.startswith("adam.")],
         r"^checkpoint missing tensor 'adam\.m\.embed'$"),
        (lambda tensors: [(n, a[:-1] if n == "adam.v.lnf.b" else a) for n, a in tensors],
         r"^shape mismatch for 'adam\.v\.lnf\.b': checkpoint \(31,\) vs model \(32,\)$"),
    ], ids=["no-moments", "moment-shape"])
    def test_resume_refuses_bad_adam_moments(self, small_corpus, tmp_path, edit, message):
        cfg = tiny_run_config(small_corpus, tmp_path / "run", steps=3)
        ck = load_checkpoint(train(cfg).final_checkpoint)
        bad = str(tmp_path / "bad.bin")
        save_checkpoint(bad, dataclasses.replace(ck, tensors=edit(ck.tensors)))
        resumed = dataclasses.replace(cfg, out_dir=str(tmp_path / "resumed"), steps=6)
        with pytest.raises(ValueError, match=message):
            train(resumed, resume_from=bad)
        assert not os.path.exists(resumed.out_dir)  # refused before any step

    def test_resume_refuses_checkpoint_past_steps(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "run", steps=6)
        train(cfg)
        shorter = dataclasses.replace(cfg, out_dir=str(tmp_path / "resumed"), steps=4)
        with pytest.raises(ValueError, match=r"at step 6, past the run's steps = 4"):
            train(shorter, resume_from=os.path.join(cfg.out_dir, "ckpt-0000006.bin"))
        assert not os.path.exists(shorter.out_dir)

    def test_short_corpus_refused_before_out_dir(self, tmp_path):
        corpus = tmp_path / "short.txt"
        corpus.write_bytes(b"abcdefghij")
        cfg = tiny_run_config(str(corpus), tmp_path / "run")
        with pytest.raises(ValueError, match=r"^corpus train split shorter than one sequence$"):
            train(cfg)
        assert not os.path.exists(cfg.out_dir)

    def test_resume_killed_in_first_step_keeps_earlier_rows(self, small_corpus, tmp_path):
        """A process killed during the first resumed step leaves ``metrics.csv``
        holding the header and the rows before the resume step."""
        cfg = tiny_run_config(small_corpus, tmp_path / "run")
        written = open(train(cfg).metrics_path).read().splitlines()
        code = ("import importlib, os, sys\n"
                "from s2moe.checkpoint import load_checkpoint\n"
                "from s2moe.config import parse_config_text\n"
                "train_module = importlib.import_module('s2moe.train')\n"
                "train_module.make_batch = lambda *args: os._exit(3)\n"
                "cfg = parse_config_text(load_checkpoint(sys.argv[1]).config_text)\n"
                "train_module.train(cfg, resume_from=sys.argv[1])\n")
        src = os.path.dirname(os.path.dirname(importlib.import_module("s2moe").__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, os.path.join(cfg.out_dir, "ckpt-0000003.bin")],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 3, proc.stderr.decode()
        lines = open(os.path.join(cfg.out_dir, "metrics.csv")).read().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 2]
        assert lines == written[:3]
        assert not os.path.exists(os.path.join(cfg.out_dir, "metrics.csv.tmp"))

    def test_load_run_reads_back_a_corpus_path_with_hash(self, small_corpus, tmp_path):
        corpus = tmp_path / "run#1" / "corpus.txt"
        corpus.parent.mkdir()
        corpus.write_bytes(open(small_corpus, "rb").read())
        cfg = tiny_run_config(str(corpus), tmp_path / "out#2", steps=1)
        result = train(cfg)
        loaded, _, _ = load_run(result.final_checkpoint)
        assert loaded == cfg

    def test_checkpoint_roundtrip_through_training(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "rt")
        result = train(cfg)
        ck = load_checkpoint(result.final_checkpoint)
        again = tmp_path / "resaved.bin"
        save_checkpoint(str(again), ck)
        assert open(result.final_checkpoint, "rb").read() == open(str(again), "rb").read()

    def test_reduction_trajectory_smoe_vs_pinned_s2moe(self, small_corpus, tmp_path):
        common = dict(steps=6, alpha=0.0, beta=0.0, precision="f64", seed=5)
        smoe_cfg = tiny_run_config(small_corpus, tmp_path / "smoe", variant="smoe", **common)
        smoe = train(smoe_cfg)

        def pin(model):
            for blk in model.blocks:
                blk.moe.noise_enabled = False
                blk.moe.blend.w.data[:] = 0.0
                blk.moe.blend.b.data[:] = 500.0  # sigmoid saturates to exactly 1

        s2_cfg = tiny_run_config(small_corpus, tmp_path / "s2", variant="s2moe", **common)
        s2 = train(s2_cfg, model_hook=pin)
        for ra, rb in zip(smoe.rows, s2.rows):
            assert ra.task_nats == rb.task_nats and ra.total == rb.total

    def test_frozen_router_is_byte_identical_after_training(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "fz", variant="smoe-dropout", steps=5)
        corpus = ingest_corpus(cfg.corpus, cfg.splits)
        model = build_model(cfg, corpus)
        before = model.blocks[0].moe.router.w_e.data.tobytes()

        captured = {}

        def grab(m):
            captured["model"] = m

        train(cfg, model_hook=grab)
        after = captured["model"].blocks[0].moe.router.w_e.data.tobytes()
        assert before == after

    def test_smoe_dropout_uses_schedule(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "sched", variant="smoe-dropout",
                              steps=4, eval_interval=1)
        result = train(cfg)
        ks = [r.k for r in result.rows]
        assert ks[0] == 1 and ks[-1] <= cfg.n_experts
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_stablemoe_freezes_at_boundary(self, small_corpus, tmp_path, monkeypatch):
        cfg = tiny_run_config(small_corpus, tmp_path / "stable", variant="stablemoe",
                              steps=6, stage_boundary=3, ckpt_interval=1)
        trains, hook = _trace_router_requires_grad(monkeypatch)
        train(cfg, model_hook=hook)
        assert trains == [True, True, True, False, False, False]
        # ckpt-N holds the weights after step N - 1: the router moves through step 2 only
        w_e = _router_bytes(cfg.out_dir, range(1, 7))
        assert len(set(w_e[:3])) == 3 and set(w_e[2:]) == {w_e[2]}

    def test_variant_flag_only_changes_stochastic_activity(self, small_corpus, tmp_path):
        counts = {}
        for variant in ("smoe", "s2moe"):
            cfg = tiny_run_config(small_corpus, tmp_path / f"act-{variant}",
                                  variant=variant, steps=2, seed=9)
            captured = {}
            train(cfg, model_hook=lambda m: captured.setdefault("model", m))
            counts[variant] = sum(blk.moe.experts.invocations
                                  for blk in captured["model"].blocks)
        # same seed, same batches, same k: the stochastic variant runs the
        # expert bank exactly twice as often (two paths), nothing else differs
        assert counts["s2moe"] == 2 * counts["smoe"]

    def test_diverged_finite_loss_completes_with_inf_perplexity(self, small_corpus, tmp_path):
        # logits scaled by 1e4 put the cross-entropy far past exp's float range
        def blow_up(model):
            model.embed.data *= 1e4

        cfg = tiny_run_config(small_corpus, tmp_path / "diverged", steps=1)
        result = train(cfg, model_hook=blow_up)
        (row,) = result.rows
        assert math.isfinite(row.task_nats) and row.task_nats > 710
        evaluated, _ = evaluate_checkpoint(result.final_checkpoint, k=2, split="val", with_collapse=False)
        assert math.isfinite(evaluated.nats) and evaluated.nats > 710
        assert evaluated.ppl == math.inf

    def test_nan_abort_retains_checkpoints(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "boom", steps=2, ckpt_interval=1)
        result = train(cfg)
        survivor = os.path.join(cfg.out_dir, "ckpt-0000002.bin")
        assert os.path.exists(survivor)

        cfg4 = dataclasses.replace(cfg, steps=4)

        def bomb(model):
            model.lnf_b.data[:] = np.nan  # first op touching it trips the guard

        with pytest.raises(TrainAbort) as err:
            train(cfg4, resume_from=survivor, model_hook=bomb)
        # the step runs unguarded; its replay under the guard names the op
        assert re.fullmatch(r"non-finite value at step 2 \(op 'add' produced non-finite values "
                            rf"\(tape position \d+\)\); last checkpoint: {re.escape(survivor)}",
                            str(err.value))
        assert os.path.exists(survivor)

    def test_nonfinite_gradient_stops_the_step_before_adam(self, small_corpus, tmp_path, monkeypatch):
        cfg = tiny_run_config(small_corpus, tmp_path / "grad", steps=4, ckpt_interval=1)
        models, calls = [], []
        backward = train_module.backward

        def poisoned(loss):  # from the third call on: step 2 and its replay
            backward(loss)
            calls.append(loss)
            if len(calls) >= 3:
                models[0].lnf_g.grad[0] = np.nan

        monkeypatch.setattr(train_module, "backward", poisoned)
        with pytest.raises(TrainAbort) as err:
            train(cfg, model_hook=models.append)
        last = os.path.join(cfg.out_dir, "ckpt-0000002.bin")
        assert str(err.value) == f"non-finite value at step 2 (non-finite gradient in lnf.g); last checkpoint: {last}"
        written = sorted(n for n in os.listdir(cfg.out_dir) if n.endswith(".bin"))
        assert written == ["ckpt-0000001.bin", "ckpt-0000002.bin"]
        for name in written:
            for tensor_name, arr in load_checkpoint(os.path.join(cfg.out_dir, name)).tensors:
                assert np.isfinite(arr).all(), (name, tensor_name)

    def test_clean_run_unchanged_with_nan_guard_off(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "run", steps=4, ckpt_interval=2)
        train(cfg)
        guarded = {n: open(os.path.join(cfg.out_dir, n), "rb").read() for n in os.listdir(cfg.out_dir)}
        metrics = str(tmp_path / "guarded.csv")
        with open(metrics, "wb") as fh:
            fh.write(guarded.pop("metrics.csv"))
        set_nan_guard(False)
        try:
            train(cfg)
        finally:
            set_nan_guard(True)
        assert metrics_equal(metrics, os.path.join(cfg.out_dir, "metrics.csv"))
        for name, data in guarded.items():
            assert open(os.path.join(cfg.out_dir, name), "rb").read() == data, name


class TestEvaluate:
    def test_untrained_model_bpc_near_uniform(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "ev")
        corpus = ingest_corpus(cfg.corpus, cfg.splits)
        model = build_model(cfg, corpus)
        result = evaluate_model(model, corpus, cfg, k=2, split="val", with_collapse=False)
        assert abs(result.bpc - math.log2(corpus.vocab_size)) < 0.05

    def test_nonfinite_parameter_named_by_eval_replay(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "ev")
        corpus = ingest_corpus(cfg.corpus, cfg.splits)
        model = build_model(cfg, corpus)
        model.lnf_b.data[:] = np.nan
        with pytest.raises(NonFiniteError, match=r"^op 'add' produced non-finite values$"):
            evaluate_model(model, corpus, cfg, k=2, split="val")

    def test_nonfinite_collapse_report_named_by_replay(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "ev")
        corpus = ingest_corpus(cfg.corpus, cfg.splits)
        model = build_model(cfg, corpus)
        layer = model.blocks[0].moe
        # equal router scores tie toward expert 0, so at k=1 the eval batches never
        # run expert 3; only the collapse report, which runs every expert, meets it
        layer.router.w_e.data[:] = 0.0
        layer.experts.w1[3].data[:] = np.nan
        with pytest.raises(NonFiniteError, match=r"^op 'matmul' produced non-finite values$"):
            evaluate_model(model, corpus, cfg, k=1, split="val")
        assert math.isfinite(evaluate_model(model, corpus, cfg, k=1, split="val", with_collapse=False).bpc)

    def test_evaluate_twice_identical(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "ev2", steps=3)
        trained = train(cfg)
        a, _ = evaluate_checkpoint(trained.final_checkpoint, k=2, split="val", with_collapse=False)
        b, _ = evaluate_checkpoint(trained.final_checkpoint, k=2, split="val", with_collapse=False)
        assert a.nats == b.nats and a.bpc == b.bpc

    def test_sweep_k_shares_attention_cost(self, small_corpus, tmp_path):
        from s2moe.diagnostics import flops_per_token
        cfg = tiny_run_config(small_corpus, tmp_path / "sweep", steps=3)
        trained = train(cfg)
        results = {}
        flops = {}
        for k in (1, 2, 4):
            res, rcfg = evaluate_checkpoint(trained.final_checkpoint, k=k, split="val",
                                            with_collapse=False)
            results[k] = res
            flops[k] = flops_per_token(rcfg.model_config(), k=k)
        assert len({f.items["attention_projections"] for f in flops.values()}) == 1
        assert len({f.items["attention_mix"] for f in flops.values()}) == 1
        assert flops[4].items["experts"] == 4 * flops[1].items["experts"]
        assert len(results) == 3

    def test_collapse_batch_takes_ceil_64_over_seq_len_windows(self):
        tokens = np.arange(1000)
        assert collapse_batch(tokens, 32, "val").shape == (2, 32)
        assert collapse_batch(tokens, 5, "val").shape == (13, 5)
        np.testing.assert_array_equal(collapse_batch(tokens, 128, "val"), tokens[None, :128])

    def test_collapse_batch_refuses_split_shorter_than_a_window(self):
        with pytest.raises(ValueError, match="split 'test'"):
            collapse_batch(np.arange(20), 32, "test")

    def test_k_out_of_range_rejected(self, small_corpus, tmp_path):
        cfg = tiny_run_config(small_corpus, tmp_path / "badk", steps=2)
        trained = train(cfg)
        with pytest.raises(ValueError):
            evaluate_checkpoint(trained.final_checkpoint, k=17, split="val")
