"""Tests of the benchmark itself: its hooks, its span arithmetic, its checks and its names.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fnmatch import fnmatch

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hypermoe import checkpoint, cli, tasks, tensor, training  # noqa: E402
from hypermoe.config import ModelConfig  # noqa: E402
from hypermoe.model import build_model  # noqa: E402

import child  # noqa: E402
from metrics import END_TO_END, per_layer  # noqa: E402
from tracer import STEP, TRACED, StepTimer, Tracer, _namespaces  # noqa: E402
from workloads import CONFIG_SEEDS, KINDS, WORKLOADS, kind_config  # noqa: E402

TINY = dict(h=4, d_ff=4, n_experts=2, top_k=1, n_layers=1, b=1, t=2, t_prime=2, t_k=2,
            noise_enabled=True, moduli=[2], operand_range=4, train_size=4, eval_size=4,
            batch_size=2, steps=3)
ROUTED = {"moe.noisy_topk_gate", "moe.load_balance_loss", "moe.moe_forward"}
HYPER = {"hyper.hypermoe_forward", "hyper.selection_embedding", "hyper.combine_embeddings"}


def tiny_config(kind: str) -> ModelConfig:
    cfg = dict(TINY, layer_kind=kind)
    if kind == "hypermoe_compressed":
        cfg.update(layer_kind="hypermoe", embedding_source="compressed")
    return ModelConfig(**cfg)


def traced_run(kind: str, tmp_path) -> Tracer:
    cfg = tiny_config(kind)
    model = build_model(cfg)
    with Tracer() as tr:
        training.train_model(model)
        training.evaluate(model, 4)
        path = str(tmp_path / "m.bin")
        checkpoint.save_checkpoint(model, path)
        checkpoint.load_checkpoint(path)
        cli.gradcheck_model(cfg)
    return tr


def bindings() -> dict:
    """Every callable bound in a hypermoe namespace, and every traced method."""
    found = {(ns.__name__, k): v for ns in _namespaces() for k, v in vars(ns).items() if callable(v)}
    for module, attr in TRACED.values():
        owner, _, method = attr.rpartition(".")
        if owner:
            found[(module, attr)] = vars(getattr(sys.modules[f"hypermoe.{module}"], owner))[method]
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_every_listed_span_fires_for_each_kind(kind, tmp_path):
    expected = set(TRACED) - ROUTED - HYPER - {"conv.compress_expert_weights"}
    if kind != "dense":
        expected |= ROUTED
    if kind.startswith("hypermoe"):
        expected |= HYPER
    if kind == "hypermoe_compressed":
        expected.add("conv.compress_expert_weights")
    tr = traced_run(kind, tmp_path)
    fired = set(tr.names)
    assert expected <= fired, f"never fired for {kind}: {sorted(expected - fired)}"
    assert fired - {STEP} <= set(TRACED)
    assert len(tr.roots(STEP)) == TINY["steps"]
    assert all(t.get("tensor.graph_nodes", 0) > 0 for t in tr.per_root(STEP))


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = bindings()
    tape = tensor.Tape
    traced_run("hypermoe", tmp_path)
    after = bindings()
    changed = sorted(key for key in before if after.get(key) is not before[key])
    assert not changed
    assert training.Tape is tape and cli.Tape is tape


def test_self_times_of_a_step_sum_to_its_root(tmp_path):
    tr = traced_run("hypermoe", tmp_path)
    for table in tr.per_root(STEP):
        self_total = sum(v for k, v in table.items() if k.endswith(".self_ms"))
        assert math.isclose(self_total, table[f"{STEP}.ms"], rel_tol=1e-9)
    own = tr.self_times()
    assert min(own) >= -1e-6


@pytest.mark.parametrize("timer_class", [StepTimer, Tracer])
def test_step_timers_delimit_every_step(timer_class):
    cfg = tiny_config("moe")
    with timer_class() as timer:
        training.train_model(build_model(cfg))
    assert len(timer.step_seconds()) == cfg.steps
    assert all(t > 0 for t in timer.step_seconds())
    assert training.generate_task_batch is tasks.generate_task_batch
    if timer_class is StepTimer:
        assert len(timer.rss_mb) == len(timer.marks) and timer.rss_mb == sorted(timer.rss_mb)


def test_trajectory_check_tolerates_reordering_and_catches_a_changed_loss():
    cfg = ModelConfig.from_dict(kind_config("small", "hypermoe", 0))
    rows = training.train_model(build_model(cfg))
    reference = [r["task_loss"] for r in rows]

    def failures(scale: float, at: int = len(rows) - 1) -> list[str]:
        changed = [dict(r) for r in rows]
        changed[at]["task_loss"] *= scale
        checks = child.Checks("t")
        child.check_rows(changed, reference, checks, 0)
        return checks.failures

    assert failures(1 + 1e-12) == []
    assert len(failures(1 + 1e-5)) == 1
    assert len(failures(float("nan"), at=0)) == 1


def test_reference_covers_every_workload_kind_and_seed():
    with open(child.REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)
    for workload, spec in WORKLOADS.items():
        for kind in KINDS:
            for seed in CONFIG_SEEDS:
                traj = reference[workload][kind][str(seed)]
                assert len(traj) == spec["steps"][kind]
                assert all(np.isfinite(traj))


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, u) for n, u, _ in per_layer()]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    with open(os.path.join(ROOT, "perfbench", "layer_map.json"), encoding="utf-8") as f:
        patterns = [entry["layer"] for entry in json.load(f)["map"]]
    unmapped = [m["name"] for m in bench["per_layer"] if not any(fnmatch(m["name"], p) for p in patterns)]
    assert not unmapped


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    proc = subprocess.run(
        bench["command"] + ["--workload", "small", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    listed = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in listed:
        assert f"\n{m['name']} " in "\n" + proc.stdout
