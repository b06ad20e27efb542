"""Self-tests of the benchmark: contract schema, metric names, exact counts.

    python3 -m pytest perfbench/test_perfbench.py -q

The end-to-end cases run the benchmark itself (about three minutes on a
2-core box); the rest are quick.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

from spans import Bindings, SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as _fh:
    DOC = json.load(_fh)
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
# per-layer values that are counts of work, identical for one seed
COUNTS = ("tensor.tape_records", "routing.route_calls", "experts.apply_calls",
          "experts.pair_ratio", "checkpoint.bytes")


def run(workload: str, trace: int, seed: int = 3, seconds: int = 1, cwd: str = ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return done


def result(workload: str, trace: int, **kwargs) -> dict:
    done = run(workload, trace, **kwargs)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    info, last = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0, info["failures"]
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = last["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    machine = info["machine"]
    assert machine["blas_threads"] <= machine["nproc"]
    return {name: entry["value"] for name, entry in last["metrics"].items()}


# ---------------------------------------------------------------------------
# quick


def test_benchmark_json_follows_the_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]] + E2E + LAYERS
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_every_metric_is_documented_with_what_it_moves():
    assert list(DOC["end_to_end"]) == E2E
    assert list(DOC["per_layer"]) == LAYERS
    workloads = {w["name"] for w in SPEC["workloads"]}
    for name, entry in DOC["per_layer"].items():
        assert set(entry["moves"]) <= set(E2E), name
        assert set(entry["workloads"]) <= workloads, name


def test_span_self_time_and_counts():
    rec = SpanRecorder()
    inner = rec.span("inner")(lambda: sum(range(1000)))
    outer = rec.span("outer")(lambda: [inner() for _ in range(3)])
    outer()
    outer()
    tot = rec.totals()
    assert tot["outer"]["calls"] == 2 and tot["inner"]["calls"] == 6
    assert tot["outer"]["children"]["inner"] == 6
    assert 0 <= tot["outer"]["self_s"] <= tot["outer"]["total_s"] - tot["inner"]["total_s"] + 1e-9
    first, last = rec.spans[0], rec.spans[-1]
    rec.add_enclosing("step", [(first[1] - 1.0, last[2] + 1.0)])
    tot = rec.totals()
    assert tot["step"]["children"]["outer"] == 2
    assert tot["step"]["self_s"] == pytest.approx(2.0 + (last[2] - first[1]) - tot["outer"]["total_s"])


def test_bindings_are_restored():
    module = types.SimpleNamespace(f=lambda: 1)

    class Owner:
        def g(self):
            return 2

    original_f, original_g = module.f, Owner.__dict__["g"]
    bindings = Bindings()
    bindings.wrap(module, "f", lambda orig: lambda: orig() + 10)
    bindings.wrap(Owner, "g", lambda orig: lambda self: orig(self) + 10)
    assert module.f() == 11 and Owner().g() == 12
    assert bindings.restore()
    assert module.f is original_f and Owner.__dict__["g"] is original_g


def test_refuses_to_run_without_the_program():
    bare = os.path.join(HERE, "work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = run("train-smoe", 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout.strip() == ""


# ---------------------------------------------------------------------------
# end to end: each runs the benchmark


def test_end_to_end_metrics_repeat_for_a_seed():
    a = result("train-smoe", 0)
    b = result("train-smoe", 0)
    assert all(a[n] > 0 for n in E2E)
    assert (a["val_bpc_k1"], a["val_bpc_k2"]) == (b["val_bpc_k1"], b["val_bpc_k2"])


def test_traced_counts_repeat_and_bypassed_layers_read_zero():
    a = result("train-smoe", 1)
    b = result("train-smoe", 1)
    assert {n: a[n] for n in COUNTS} == {n: b[n] for n in COUNTS}
    assert a["experts.pair_ratio"] == 1.0 and a["routing.route_calls"] == 1.0
    for name in ("stochastic.stats_s", "stochastic.perturb_s", "stochastic.blend_s",
                 "losses.uncertainty_s", "moe.s2moe_forward_s", "checkpoint.load_s"):
        assert a[name] == 0.0, name
    assert a["tensor.backward_s"] > 0 and a["train.adam_s"] > 0 and a["checkpoint.bytes"] > 0


def test_traced_two_path_and_eval_layers():
    s2 = result("train-s2moe", 1)
    assert s2["routing.route_calls"] == 2.0 and s2["experts.pair_ratio"] == 1.0
    assert min(s2["stochastic.stats_s"], s2["stochastic.perturb_s"], s2["stochastic.blend_s"],
               s2["losses.uncertainty_s"]) > 0
    ev = result("eval-sweep", 1)
    assert ev["routing.route_calls"] == 1.0 and ev["experts.pair_ratio"] == 1.0
    for name in ("tensor.backward_s", "tensor.tape_records", "train.adam_s", "train.clip_s",
                 "stochastic.stats_s", "stochastic.perturb_s", "stochastic.blend_s",
                 "losses.uncertainty_s", "checkpoint.save_s"):
        assert ev[name] == 0.0, name
    assert ev["checkpoint.load_s"] > 0 and ev["diagnostics.collapse_s"] > 0
