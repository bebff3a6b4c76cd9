import builtins
import contextlib
import ctypes
import errno
import gc
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermoe import checkpoint, tasks, training
from hypermoe import tensor as T
from hypermoe.checkpoint import MAGIC, REQUIRED_KEYS, load_checkpoint, save_checkpoint
from hypermoe.cli import EXIT_CONFIG, EXIT_INTEGRITY, main
from hypermoe.config import EMBEDDING_SOURCES, FIELD_RULES, LAYER_KINDS, TASKS, ModelConfig
from hypermoe.errors import ConfigurationError, IntegrityError
from hypermoe.model import EVAL_CHUNK, build_model
from hypermoe.moe import load_balance_loss
from hypermoe.tasks import GroupedModularAddition, build_task, generate_task_batch
from hypermoe.tensor import Rng, Tensor
from hypermoe.training import Adam, evaluate, make_optimizer, train_model, train_step, utilization_histogram


def tiny_cfg(**kw):
    base = dict(
        h=16,
        d_ff=16,
        n_experts=3,
        top_k=1,
        n_layers=2,
        t=4,
        t_prime=4,
        t_k=4,
        b=2,
        moduli=[3, 4],
        train_size=64,
        eval_size=32,
        steps=10,
        batch_size=16,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("steps", 0),
            ("batch_size", 0),
            ("eval_size", 0),
            ("train_size", 0),
            ("learning_rate", -1),
            ("learning_rate", float("nan")),
            ("warmup_frac", 2.0),
            ("moduli", []),
            ("moduli", [3, "4"]),
            ("top_k", 1.5),
            ("h", "32"),
            ("seed", -1),
            ("noise_enabled", "yes"),
            ("task", "sorting"),
            ("operand_range", 0),
        ],
    )
    def test_bad_field_is_named(self, name, value):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be .*, got "):
            tiny_cfg(**{name: value})

    @pytest.mark.parametrize(
        "raw,named",
        [
            ({"n_experts": 2, "top_k": 3}, "top_k=3 exceeds n_experts=2"),
            ({"n_experts": 2, "top_k": 2}, "hypermoe requires top_k < n_experts"),
            ({"h": 8, "b": 8}, "bottleneck b=8 must be smaller than h=8"),
            ({"h": 100000, "steps": 1}, "shrink h, d_ff, n_experts or n_layers"),
            ({"h": 10**12, "steps": 1}, "shrink h, d_ff, n_experts or n_layers"),
        ],
        ids=[
            "top-k-above-n", "hypermoe-no-unselected", "bottleneck-not-below-h", "too-many-parameters",
            "too-wide-for-any-table",
        ],
    )
    def test_inconsistent_or_oversized_config_exits_2(self, raw, named, tmp_path, capsys):
        # the parameter bound is checked before the allocation that would pass
        # it, and before the (seq_len, h) position table
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err and err.count("\n") == 1

    def test_every_field_has_a_rule(self):
        assert set(FIELD_RULES) == {f.name for f in fields(ModelConfig)}

    def test_wrong_type_from_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"h": "32"}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "h must be" in capsys.readouterr().err


class TestBuildContracts:
    def test_dense_has_no_routing_parameters(self):
        model = build_model(tiny_cfg(layer_kind="dense"))
        assert not any("gate" in n or "expert" in n or "hyper" in n for n in model.params)
        assert any(".ffn." in n for n in model.params)

    def test_hypermoe_single_generator_across_layers(self):
        model = build_model(tiny_cfg(layer_kind="hypermoe", n_layers=4))
        gen_names = [n for n in model.params if n in ("hyper.w_down", "hyper.w_up")]
        assert sorted(gen_names) == ["hyper.w_down", "hyper.w_up"]
        assert model.params["hyper.layers"].shape == (4, 4)

    def test_census_matches_count_report(self):
        cfg = tiny_cfg(layer_kind="hypermoe")
        model = build_model(cfg)
        census = {name: p.size for name, p in model.params.items()}
        h, e, d_ff, t, tp, tk, b = cfg.h, cfg.n_experts, cfg.d_ff, cfg.t, cfg.t_prime, cfg.t_k, cfg.b
        hypernetwork = (h * b + b * h) * tk
        selection_mlp = tp * t + t + t * t + t  # hidden width t
        projector = (t + tp) * tk + tk
        gate = sum(v for n, v in census.items() if ".gate." in n) // cfg.n_layers
        experts = (
            sum(v for n, v in census.items() if n.startswith("l") and ".expert" in n)
            // cfg.n_layers
        )
        assert gate == 2 * h * e
        assert experts == e * (h * d_ff + d_ff * h)
        assert census["hyper.w_down"] + census["hyper.w_up"] == hypernetwork
        assert census["hyper.experts"] == e * tp
        assert census["hyper.layers"] == cfg.n_layers * tp
        hyper_total = sum(v for n, v in census.items() if n.startswith("hyper."))
        assert hyper_total == hypernetwork + e * tp + cfg.n_layers * tp + selection_mlp + projector

    def test_compressed_model_has_no_learned_table(self):
        learned = build_model(tiny_cfg(layer_kind="hypermoe"))
        compressed = build_model(tiny_cfg(layer_kind="hypermoe", embedding_source="compressed"))
        assert sorted(compressed.params) == sorted(set(learned.params) - {"hyper.experts"})
        cfg = compressed.cfg
        assert compressed.total_params() == learned.total_params() - cfg.n_experts * cfg.t_prime
        for name, p in compressed.params.items():
            assert np.array_equal(p.data, learned.params[name].data), name

    def test_common_parameters_shared_across_layer_kinds(self):
        cfg_a = tiny_cfg(layer_kind="moe")
        cfg_b = tiny_cfg(layer_kind="hypermoe")
        a, b = build_model(cfg_a), build_model(cfg_b)
        for name in a.params:
            assert name in b.params
            assert np.array_equal(a.params[name].data, b.params[name].data), name


class TestGroupedModularAddition:
    def test_spot_check_label(self):
        task = GroupedModularAddition([5, 3, 4, 6], seed=0, train_size=10, eval_size=10)
        tokens, targets = task.encode(np.array([[0, 3, 4]]))
        assert tokens.tolist() == [[0, 4 + 3, 4 + 4]]
        assert targets.tolist() == [2]  # (3 + 4) mod 5

    def test_pools_disjoint_and_deterministic(self):
        a = GroupedModularAddition([3, 2], seed=5, train_size=40, eval_size=20)
        b = GroupedModularAddition([3, 2], seed=5, train_size=40, eval_size=20)
        assert np.array_equal(a._train, b._train)
        assert np.array_equal(a._eval, b._eval)
        train_set = {tuple(t) for t in a._train}
        eval_set = {tuple(t) for t in a._eval}
        assert not train_set & eval_set

    def test_full_space_labels_exactly_uniform_per_group(self):
        moduli = [2, 3, 4]
        task = GroupedModularAddition(moduli, seed=0, train_size=10, eval_size=10)
        r = task.operand_range
        g, a, b = np.meshgrid(np.arange(3), np.arange(r), np.arange(r), indexing="ij")
        triples = np.stack([g.ravel(), a.ravel(), b.ravel()], axis=1)
        _, targets = task.encode(triples)
        for gi, m in enumerate(moduli):
            labels = targets[triples[:, 0] == gi]
            counts = np.bincount(labels, minlength=m)
            assert np.all(counts == r * r // m)

    def test_sampled_labels_pass_chi_square(self):
        # chi-square goodness of fit at alpha = 0.01 against uniform labels,
        # per group, over 10^4 training draws
        task = GroupedModularAddition([4, 4], seed=1, train_size=128, eval_size=0, operand_range=8)
        rng = Rng(9)
        tokens, targets = task.train_batch(rng, 10_000)
        crit_3df = 11.345
        for gi in range(2):
            labels = targets[tokens[:, 0] == gi]
            counts = np.bincount(labels, minlength=4)
            expected = len(labels) / 4
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < crit_3df

    def test_operand_range_must_be_lcm_multiple(self):
        with pytest.raises(ConfigurationError):
            GroupedModularAddition([3, 4], seed=0, train_size=4, eval_size=4, operand_range=10)

    def test_pool_size_guard(self):
        with pytest.raises(ConfigurationError):
            GroupedModularAddition([2], seed=0, train_size=100, eval_size=100, operand_range=2)

    @pytest.mark.parametrize(
        "raw,named",
        [
            ({"moduli": [1000003], "steps": 1}, "moduli"),
            ({"moduli": [1025], "steps": 1}, "moduli"),
            ({"moduli": [2, 2], "operand_range": 1024, "steps": 1}, "operand_range 1024"),
        ],
        ids=["huge-modulus", "just-above", "operand-range"],
    )
    def test_instance_space_bound_exits_2(self, raw, named, tmp_path, capsys):
        # checked before the pool is enumerated: n_groups * operand_range^2 triples
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1

    def test_build_task_kind(self):
        assert build_task(tiny_cfg()).kind == "classification"
        assert build_task(tiny_cfg(task="piecewise_regression")).kind == "regression"


def _arrays(inputs) -> tuple:
    """A task's inputs as a tuple of arrays: the tokens, or the prefix ids and the scalars."""
    return inputs if isinstance(inputs, tuple) else (inputs,)


def _old_task_loss(outputs, targets, kind):
    """The training loss as it was computed before each task owned its loss: the oracle."""
    if kind == "classification":
        return T.softmax_cross_entropy(outputs, targets)
    return T.mse(outputs, np.asarray(targets)[:, None])


class TestTaskContract:
    """Each task says how outputs are shaped, trained and scored; these pin that contract to
    the arithmetic ``training`` did itself before, branching on the task kind."""

    @pytest.mark.parametrize("task", TASKS)
    def test_eval_chunks_join_to_the_whole_set(self, task):
        t = build_task(tiny_cfg(task=task, eval_size=40))
        whole_inputs, whole_targets = t.eval_set(0, 40)
        chunks = [t.eval_set(lo, min(lo + 16, 40)) for lo in range(0, 40, 16)]
        joined = [np.concatenate(parts) for parts in zip(*(_arrays(c[0]) for c in chunks))]
        assert [a.tobytes() for a in joined] == [a.tobytes() for a in _arrays(whole_inputs)]
        assert np.concatenate([c[1] for c in chunks]).tobytes() == whole_targets.tobytes()
        assert len(whole_targets) == 40

    @pytest.mark.parametrize("task", TASKS)
    def test_loss_is_the_old_formula_bit_for_bit(self, task):
        model = build_model(tiny_cfg(task=task, layer_kind="moe"))
        inputs, targets = generate_task_batch(model.task, Rng(5), 16)
        with T.no_grad():
            outputs = model.forward(inputs, training=False).outputs.data
        grads = []
        for loss in (model.task.loss, lambda o, t: _old_task_loss(o, t, model.task.kind)):
            x = Tensor(outputs.copy(), requires_grad=True)
            value = loss(x, targets)
            value.backward()
            grads.append((value.data.tobytes(), x.grad.tobytes()))
        assert grads[0] == grads[1]
        assert model.task.out_dim == outputs.shape[1]

    @pytest.mark.parametrize("task", TASKS)
    def test_summed_scores_are_the_old_evaluate_arithmetic(self, task):
        model = build_model(tiny_cfg(task=task, layer_kind="hypermoe", eval_size=600, operand_range=24))
        n = 600  # two chunks
        inputs, targets = model.task.eval_set(0, n)
        correct, sq_err, score = 0, 0.0, 0
        for lo in range(0, n, EVAL_CHUNK):
            hi = min(lo + EVAL_CHUNK, n)
            chunk = tuple(a[lo:hi] for a in _arrays(inputs))
            with T.no_grad():
                outputs = model.forward(chunk if len(chunk) == 2 else chunk[0], training=False).outputs.data
            preds = outputs.argmax(axis=1)
            correct += int((preds == targets[lo:hi]).sum())
            diff = outputs[:, 0] - targets[lo:hi]
            sq_err += float((diff * diff).sum())
            score += model.task.score(outputs, targets[lo:hi])
        old = {"classification": ("accuracy", correct / n), "regression": ("mse", sq_err / n)}[model.task.kind]
        assert (model.task.metric, score / n) == old
        assert evaluate(model, n)[model.task.metric] == old[1]

    def test_regression_eval_set_reads_the_pool_it_drew_at_build(self, monkeypatch):
        t = build_task(tiny_cfg(task="piecewise_regression"))
        monkeypatch.setattr(tasks, "Rng", lambda *a: pytest.fail("eval_set drew again"))
        (ids_a, xs_a), ys_a = t.eval_set(0, 32)
        (ids_b, xs_b), ys_b = t.eval_set(0, 32)
        assert np.shares_memory(ids_a, ids_b) and np.shares_memory(xs_a, xs_b)
        assert ys_a.tobytes() == ys_b.tobytes()


class TestTraining:
    def test_zero_aux_coef_total_equals_task(self):
        model = build_model(tiny_cfg(layer_kind="moe", aux_loss_coef=0.0, steps=5))
        rows = train_model(model)
        for row in rows:
            assert row["total_loss"] == row["task_loss"]

    def test_aux_coef_adds_to_total(self):
        model = build_model(tiny_cfg(layer_kind="moe", aux_loss_coef=0.5, steps=3))
        rows = train_model(model)
        for row in rows:
            assert abs(row["total_loss"] - (row["task_loss"] + 0.5 * row["aux_loss"])) < 1e-12

    @pytest.mark.parametrize("coef", [0.0, 0.5])
    def test_logged_aux_is_the_mean_load_balance_loss_of_the_decisions(self, coef):
        cfg = tiny_cfg(layer_kind="hypermoe", aux_loss_coef=coef, n_layers=3)
        model = build_model(cfg)
        inputs, targets = generate_task_batch(model.task, Rng(0), 16)
        result = model.forward(inputs, training=True, noise_rng=Rng(1))
        total, task_l, aux_l = training.combined_loss(result, targets, model.task, cfg)
        want = float(np.mean([load_balance_loss(d).item() for d in result.decisions]))
        assert len(result.decisions) == 3
        assert aux_l > 0 and abs(aux_l - want) <= 1e-12 * want
        assert abs(total.item() - (task_l + coef * aux_l)) <= 1e-12 * total.item()

    def test_small_pool_overfits(self):
        cfg = tiny_cfg(
            layer_kind="dense", train_size=32, steps=220, batch_size=32, learning_rate=3e-3
        )
        rows = train_model(build_model(cfg))
        assert rows[-1]["task_loss"] < 0.1 * rows[0]["task_loss"]

    def test_same_seed_identical_trajectories(self):
        cfg = tiny_cfg(layer_kind="hypermoe", steps=8)
        rows_a = train_model(build_model(cfg))
        rows_b = train_model(build_model(cfg))
        assert rows_a == rows_b

    def test_train_step_leaves_unused_expert_rows_untouched(self):
        # 6 tokens over 8 experts leave some expert unused; with nonzero moments
        # an update of its rows would move them even at a zero gradient
        n = 8
        model = build_model(tiny_cfg(layer_kind="moe", n_experts=n, n_layers=1))
        opt = make_optimizer(model)
        for name in opt._m:
            opt._m[name][...] = 0.1
            opt._v[name][...] = 0.01
        names = ("l0.experts.w1", "l0.experts.w2")
        before = {name: [a.copy() for a in (model.params[name].data, opt._m[name], opt._v[name])] for name in names}
        inputs, targets = generate_task_batch(model.task, Rng(0), 2)
        result, *_ = train_step(model, opt, inputs, targets, Rng(1))
        used = set(result.decisions[0].selected.ravel().tolist())
        assert 0 < len(used) < n
        for name in names:
            after = (model.params[name].data, opt._m[name], opt._v[name])
            for e in range(n):
                for old, new in zip(before[name], after):
                    assert np.array_equal(old[e], new[e]) == (e not in used), (name, e)

    def test_adam_matches_out_of_place_formulas(self):
        # weights start at zero, so each step's update is not rounded away against them
        rng = Rng(5)
        params = {"a": Tensor(np.zeros((6, 7))), "b": Tensor(np.zeros(9))}
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(w) for k, w in want.items()}
        v = {k: np.zeros_like(w) for k, w in want.items()}
        opt = Adam(params, lr=1e-2, warmup_steps=2, total_steps=6)
        b1, b2 = Adam.beta1, Adam.beta2
        for t in range(1, 8):
            lr = 1e-2 * min(1.0, t / 2)
            if t > 2:
                lr *= 0.55 + 0.45 * np.cos(np.pi * min(1.0, (t - 2) / 4))
            for k, p in params.items():
                p.grad = g = rng.gaussian(*p.shape)
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                want[k] = want[k] - lr * (m[k] / (1.0 - b1**t)) / (np.sqrt(v[k] / (1.0 - b2**t)) + Adam.eps)
            opt.step()
            for k, p in params.items():
                assert np.array_equal(p.data, want[k]), (t, k)

    def test_different_seed_differs(self):
        rows_a = train_model(build_model(tiny_cfg(layer_kind="moe", steps=5, seed=0)))
        rows_b = train_model(build_model(tiny_cfg(layer_kind="moe", steps=5, seed=1)))
        assert rows_a != rows_b


class TestEvaluate:
    def test_untrained_model_is_chance_level(self):
        cfg = tiny_cfg(
            moduli=[5, 5, 5, 5], n_experts=4, eval_size=2000, train_size=2000, operand_range=40
        )
        metrics = evaluate(build_model(cfg), 2000)
        assert abs(metrics["accuracy"] - 0.2) < 0.05

    def test_repeatable(self):
        cfg = tiny_cfg(layer_kind="moe")
        model = build_model(cfg)
        assert evaluate(model, 32) == evaluate(model, 32)

    def test_utilization_sums_to_layers_times_k_times_tokens(self):
        cfg = tiny_cfg(layer_kind="moe", top_k=2, n_layers=3)
        model = build_model(cfg)
        inputs, _ = model.task.eval_set(0, 16)
        result = model.forward(inputs)
        hist = utilization_histogram(result, cfg.n_experts)
        assert hist.sum() == 3 * 2 * 16 * model.task.seq_len
        assert sum(evaluate(model, 16)["utilization"]) == 3 * 2 * 16 * model.task.seq_len

    def test_regression_task_reports_mse(self):
        cfg = tiny_cfg(task="piecewise_regression", train_size=64, eval_size=32)
        metrics = evaluate(build_model(cfg), 32)
        assert "mse" in metrics and metrics["mse"] >= 0

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_same_dict_as_with_a_graph(self, kind, task, monkeypatch):
        model = build_model(tiny_cfg(layer_kind=kind, task=task, eval_size=600, operand_range=24))
        free = evaluate(model, 600)  # two chunks
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        assert evaluate(model, 600) == free

    @pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None, reason="needs glibc mallopt")
    def test_fresh_process_keeps_its_heap_mapped(self):
        # an evaluate-only process: the heap one call frees must stay mapped for
        # the next call, not be handed back and page-faulted in again
        script = textwrap.dedent("""
            import resource
            from hypermoe.config import ModelConfig
            from hypermoe.model import EVAL_CHUNK, build_model
            from hypermoe.training import evaluate
            model = build_model(ModelConfig(
                layer_kind="hypermoe", h=32, d_ff=64, n_experts=4, top_k=1, n_layers=2, b=4, batch_size=64,
                moduli=[5, 3, 4, 6], train_size=4096, eval_size=512, noise_enabled=False))
            evaluate(model, 512)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(20):
                evaluate(model, 512)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
        """)
        src = os.path.dirname(os.path.dirname(T.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 100

    def test_builds_no_load_balance_loss(self, monkeypatch):
        # only the training loss reads the aux loss; patch every namespace that binds it
        calls = []

        def counting(decision):
            calls.append(decision)
            return load_balance_loss(decision)

        for name, module in list(sys.modules.items()):
            if name.startswith("hypermoe") and getattr(module, "load_balance_loss", None) is load_balance_loss:
                monkeypatch.setattr(module, "load_balance_loss", counting)
        model = build_model(tiny_cfg(layer_kind="hypermoe"))
        evaluate(model, 600)
        assert calls == []
        inputs, targets = generate_task_batch(model.task, Rng(0), 16)
        train_step(model, make_optimizer(model), inputs, targets, Rng(1))
        assert len(calls) == model.cfg.n_layers

    def test_forward_links_no_graph(self, monkeypatch):
        model = build_model(tiny_cfg(layer_kind="hypermoe"))
        outputs = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda *a, **kw: outputs.append(forward(*a, **kw)) or outputs[-1])
        evaluate(model, 32)
        assert outputs and all(r.outputs.node is None and not r.outputs.requires_grad for r in outputs)
        inputs, _ = model.task.eval_set(0, 4)
        assert forward(inputs, training=True, noise_rng=Rng(0)).outputs.node is not None


class TestTrainStepGraph:
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_freed_by_refcount(self, kind, monkeypatch):
        # every backward rule of the step's graph is dead when train_step
        # returns, with the cyclic collector off and the step's result held
        model = build_model(tiny_cfg(layer_kind=kind))
        opt = make_optimizer(model)
        inputs, targets = generate_task_batch(model.task, Rng(0), 16)
        rules = []
        walk = T.backward

        def collecting(loss):
            stack, seen = [loss.node], set()
            while stack:
                node = stack.pop()
                if node is not None and node.parents and id(node) not in seen:
                    seen.add(id(node))
                    rules.append(weakref.ref(node.rule))
                    stack.extend(node.parents)
            walk(loss)

        monkeypatch.setattr(T, "backward", collecting)
        gc.disable()
        try:
            result, *_ = train_step(model, opt, inputs, targets, Rng(1))
            dead = sum(r() is None for r in rules)
        finally:
            gc.enable()
        assert len(rules) > 10
        assert dead == len(rules)
        assert result.outputs.node.parents == () and result.outputs.node.grad is None

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_held_result_keeps_no_graph(self, kind):
        # what a step leaves traced while its result is held, against the step's peak
        model = build_model(tiny_cfg(layer_kind=kind, h=32, d_ff=64, n_experts=4, top_k=2, n_layers=2, batch_size=64))
        opt = make_optimizer(model)
        inputs, targets = generate_task_batch(model.task, Rng(0), 64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result, *_ = train_step(model, opt, inputs, targets, Rng(1))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.outputs.data.shape[0] == 64
        assert held - base < 0.05 * (peak - base), (held - base, peak - base)


SHORTCUT_CASES = {
    "dense": dict(layer_kind="dense"),
    "moe": dict(layer_kind="moe"),
    "moe_share": dict(layer_kind="moe_share"),
    "hypermoe": dict(layer_kind="hypermoe"),
    "compressed": dict(layer_kind="hypermoe", embedding_source="compressed"),
    "condition_on_selected": dict(layer_kind="hypermoe", condition_on="selected"),
    "piecewise_regression": dict(layer_kind="hypermoe", task="piecewise_regression"),
    "one_layer": dict(layer_kind="moe", n_layers=1),
}


class TestInferenceForward:
    """An inference forward runs the last block's FFN slot only at the position the head reads;
    with noise off, the training forward runs the full path and is its oracle."""

    @pytest.mark.parametrize("kw", SHORTCUT_CASES.values(), ids=SHORTCUT_CASES.keys())
    def test_matches_the_full_path(self, kw):
        model = build_model(tiny_cfg(n_experts=4, top_k=2, noise_enabled=False, **kw))
        inputs, _ = generate_task_batch(model.task, Rng(0), 16)
        with T.no_grad():
            full = model.forward(inputs, training=True)
            short = model.forward(inputs, training=False)
        assert np.max(np.abs(short.outputs.data - full.outputs.data)) <= 1e-12
        assert len(short.decisions) == len(full.decisions) == (0 if kw["layer_kind"] == "dense" else model.cfg.n_layers)
        for s, f in zip(short.decisions, full.decisions):
            assert len(s.selected) == len(s.binary_mask) == len(s.router_probs.data) == 16 * model.task.seq_len
            assert np.array_equal(s.router_probs.data, f.router_probs.data)
            assert np.array_equal(s.selected, f.selected)
            assert np.array_equal(s.binary_mask, f.binary_mask)

    @pytest.mark.parametrize("kind", ["moe", "hypermoe"])
    def test_training_runs_the_last_block_on_every_slot(self, kind, monkeypatch):
        routed = T.routed_experts
        slots = []

        def counting(x, w1, w2, selected, gates):
            slots.append(selected.size)
            return routed(x, w1, w2, selected, gates)

        for name, module in list(sys.modules.items()):
            if name.startswith("hypermoe") and getattr(module, "routed_experts", None) is routed:
                monkeypatch.setattr(module, "routed_experts", counting)
        model = build_model(tiny_cfg(layer_kind=kind, top_k=2))
        inputs, targets = generate_task_batch(model.task, Rng(0), 16)
        tokens = 16 * model.task.seq_len
        train_step(model, make_optimizer(model), inputs, targets, Rng(1))
        assert slots == [tokens * 2] * model.cfg.n_layers
        slots.clear()
        with T.no_grad():
            model.forward(inputs, training=False)
        assert slots == [tokens * 2] * (model.cfg.n_layers - 1) + [16 * 2]


class TestModelScaleZeroGenerator:
    def test_step0_hypermoe_matches_moe(self):
        cfg_m = tiny_cfg(layer_kind="moe", noise_enabled=False)
        cfg_h = tiny_cfg(layer_kind="hypermoe", noise_enabled=False)
        m, hm = build_model(cfg_m), build_model(cfg_h)
        hm.params["hyper.w_down"].data[:] = 0.0
        hm.params["hyper.w_up"].data[:] = 0.0
        inputs, _ = m.task.eval_set(0, 24)
        out_m = m.forward(inputs).outputs.data
        out_h = hm.forward(inputs).outputs.data
        assert np.array_equal(out_m, out_h)


@st.composite
def tiny_configs(draw):
    """Small configs over every layer kind, task and (for hypermoe) embedding source."""
    kind = draw(st.sampled_from(LAYER_KINDS))
    n_experts = draw(st.integers(2, 3))
    return tiny_cfg(
        layer_kind=kind,
        embedding_source=draw(st.sampled_from(EMBEDDING_SOURCES)) if kind == "hypermoe" else "learned",
        task=draw(st.sampled_from(TASKS)),
        h=draw(st.sampled_from([4, 8])),
        d_ff=draw(st.sampled_from([4, 8])),
        n_experts=n_experts,
        top_k=draw(st.integers(1, n_experts - 1)),
        n_layers=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_cfg(layer_kind="hypermoe")
        model = build_model(cfg)
        train_model(model)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(model, path, step=cfg.steps)
        loaded, step = load_checkpoint(path)
        assert step == cfg.steps
        assert sorted(loaded.params) == sorted(model.params)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name

    def test_compressed_roundtrip_bit_exact(self, tmp_path):
        model = build_model(tiny_cfg(layer_kind="hypermoe", embedding_source="compressed"))
        train_model(model)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(model, path, step=model.cfg.steps)
        loaded, step = load_checkpoint(path)
        assert step == model.cfg.steps
        assert sorted(loaded.params) == sorted(model.params) and "hyper.experts" not in loaded.params
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name

    def test_manifest_entries_carry_no_count(self, tmp_path):
        # the size follows from the shape; an entry that still carries a count, as older
        # format-2 files do, loads the same
        path = str(tmp_path / "ck.bin")
        model = build_model(tiny_cfg(layer_kind="hypermoe"))
        save_checkpoint(model, path)
        with open(path, "rb") as f:
            data = f.read()
        (n,) = struct.unpack("<Q", data[len(MAGIC) : HEAD])
        assert all(sorted(e) == ["name", "offset", "shape"] for e in json.loads(data[HEAD : HEAD + n])["params"])
        rewrite_manifest(path, lambda m: [e.update(count=int(np.prod(e["shape"]))) for e in m["params"]])
        loaded, _ = load_checkpoint(path)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name

    @pytest.mark.parametrize("source", EMBEDDING_SOURCES)
    def test_load_draws_no_random_init(self, source, tmp_path, monkeypatch):
        model = build_model(tiny_cfg(layer_kind="hypermoe", embedding_source=source))
        train_model(model)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(model, path)
        draws = []
        gaussian = Rng.gaussian
        monkeypatch.setattr(Rng, "gaussian", lambda self, *shape, std=1.0: draws.append(shape) or gaussian(self, *shape, std=std))
        loaded, _ = load_checkpoint(path)
        # the frozen conv chain is not saved, so only the compressed source draws it
        conv = [w.shape for w in loaded.conv_pipeline.weights if w is not None] if loaded.conv_pipeline else []
        assert draws == conv
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name

    def test_manifest_records_config(self, tmp_path):
        cfg = tiny_cfg(layer_kind="moe")
        path = str(tmp_path / "ck.bin")
        save_checkpoint(build_model(cfg), path)
        assert load_checkpoint(path)[0].cfg.to_dict() == cfg.to_dict()

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(build_model(tiny_cfg()), path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:-16])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_flipped_byte_rejected(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(build_model(tiny_cfg()), path)
        blob = bytearray(open(path, "rb").read())
        blob[-5] ^= 0xFF
        with open(path, "wb") as f:
            f.write(bytes(blob))
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "nope.bin")
        with open(path, "wb") as f:
            f.write(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_failed_save_keeps_existing_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(build_model(tiny_cfg()), path)
        before = open(path, "rb").read()

        class FailsAfterFirstWrite:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.f.write(data)

        monkeypatch.setattr(
            checkpoint, "open", lambda *a, **k: FailsAfterFirstWrite(builtins.open(*a, **k)), raising=False
        )
        with pytest.raises(OSError):
            save_checkpoint(build_model(tiny_cfg(seed=1)), path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["ck.bin"]

    @given(cfg=tiny_configs())
    def test_save_load_save_byte_identical(self, cfg, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpt")
        first, second = str(tmp / "a.bin"), str(tmp / "b.bin")
        save_checkpoint(build_model(cfg), first, step=3)
        loaded, step = load_checkpoint(first)
        save_checkpoint(loaded, second, step=step)
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_streamed_save_writes_the_copying_writers_bytes(self, tmp_path):
        # the file is byte for byte what the writer that joined a payload copy wrote, and a save
        # allocates under a quarter of the payload, where that writer took more than all of it
        model = build_model(tiny_cfg(layer_kind="hypermoe", h=32, d_ff=96, n_experts=4))
        payload = sum(p.data.nbytes for p in model.params.values())
        peaks = []
        for save, name in ((save_checkpoint, "new.bin"), (copying_save_checkpoint, "old.bin")):
            tracemalloc.start()
            try:
                save(model, str(tmp_path / name), step=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()
        assert peaks[0] < payload / 4 and peaks[1] > payload, (peaks, payload)


HEAD = len(MAGIC) + 8  # magic and the manifest length


def copying_save_checkpoint(model, path, step=0):
    """The writer that joined every parameter's bytes into one payload before writing; the
    reference for the bytes ``save_checkpoint`` writes."""
    entries, payload = [], bytearray()
    for name in sorted(model.params):
        p = model.params[name]
        entries.append({"name": name, "shape": list(p.shape), "offset": len(payload)})
        payload += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    manifest = {"format": checkpoint.FORMAT, "step": step, "config": model.cfg.to_dict(), "params": entries,
                "sha256": hashlib.sha256(payload).hexdigest()}
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "xb") as f:
        f.write(MAGIC + struct.pack("<Q", len(blob)) + blob)
        f.write(payload)


def rehashed(data):
    """A checkpoint's bytes with the manifest's sha256 set to the payload's, so the checksum passes."""
    (n,) = struct.unpack("<Q", data[len(MAGIC) : HEAD])
    manifest = json.loads(data[HEAD : HEAD + n])
    payload = data[HEAD + n :]
    manifest["sha256"] = hashlib.sha256(payload).hexdigest()
    blob = json.dumps(manifest).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def rewrite_manifest(path, edit):
    """Apply ``edit`` to a saved checkpoint's manifest; the payload is kept."""
    with open(path, "rb") as f:
        data = f.read()
    (blob_len,) = struct.unpack("<Q", data[len(MAGIC) : HEAD])
    manifest = json.loads(data[HEAD : HEAD + blob_len])
    edit(manifest)
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<Q", len(blob)) + blob + data[HEAD + blob_len :])


def entry(manifest, name):
    return next(e for e in manifest["params"] if e["name"] == name)


class TestCheckpointManifest:
    @pytest.fixture
    def path(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(build_model(tiny_cfg()), path)
        return path

    def test_missing_parameter_rejected(self, path):
        rewrite_manifest(path, lambda m: m["params"].remove(entry(m, "head.w")))
        with pytest.raises(IntegrityError, match="head.w"):
            load_checkpoint(path)

    def test_unknown_parameter_rejected(self, path):
        extra = {"name": "head.extra", "shape": [4], "offset": 0}
        rewrite_manifest(path, lambda m: m["params"].append(extra))
        with pytest.raises(IntegrityError, match="head.extra"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, path):
        def reshape_bias(m):
            e = entry(m, "head.b")
            e["shape"] = [1] + e["shape"]

        rewrite_manifest(path, reshape_bias)
        with pytest.raises(IntegrityError, match="head.b"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m.update(format=1), "format 1, this version reads 2"),
            (lambda m: m.update(format="2"), 'format "2", this version reads 2'),
            (lambda m: m.update(params={}), "params must be a list"),
            (lambda m: m["params"].append([1]), r"entry \[1\] needs"),
            (lambda m: entry(m, "head.b").update(name=7), "needs a str name"),
            (lambda m: entry(m, "head.b").update(shape=[2.0]), "list-of-int shape"),
            (lambda m: entry(m, "head.b").pop("offset"), "int offset >= 0"),
            (lambda m: entry(m, "head.b").update(offset=-16), "int offset >= 0"),
            (lambda m: m["params"].append(dict(entry(m, "head.b"))), "'head.b' twice"),
            (lambda m: m.update(config="x"), "invalid embedded config: a config must be a JSON object, got str"),
            (lambda m: m["config"].update(h=0), "invalid embedded config: h must be"),
            (lambda m: m["config"].update(moduli=[1025]), "invalid embedded config: moduli"),
            (lambda m: m["config"].update(h=100000), "invalid embedded config: .*shrink h, d_ff, n_experts or n_layers"),
            (lambda m: m["config"].update(renormalize_gate=False), "invalid embedded config: .*renormalize_gate"),
            (
                lambda m: m["config"].update(
                    layer_kind="dense", d_ff=2**16, batch_size=1, moduli=[5, 3, 4, 6], eval_size=512
                ),
                "invalid embedded config: eval_size 512: an eval forward's array",
            ),
        ],
        ids=[
            "format-1", "format-str", "params-not-list", "entry-not-object", "name-not-str", "shape-not-ints",
            "offset-missing", "offset-negative", "name-twice", "config-not-object", "config-bad-field",
            "config-pool-too-large", "config-too-many-parameters", "config-renormalize-gate",
            "config-eval-chunk-too-large",
        ],
    )
    def test_malformed_manifest_exits_4(self, path, edit, message, capsys):
        rewrite_manifest(path, edit)
        with pytest.raises(IntegrityError, match=f"^{re.escape(path)}: .*{message}"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", path]) == EXIT_INTEGRITY
        err = capsys.readouterr().err
        assert err.startswith("integrity error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda data: data[: len(MAGIC)] + struct.pack("<Q", len(data)) + data[HEAD:], "truncated manifest"),
            (lambda data: data[:HEAD] + b"\xff" + data[HEAD + 1 :], "corrupt manifest: 'utf-8' codec"),
            (lambda data: data[:HEAD] + b"x" + data[HEAD + 1 :], "corrupt manifest: Expecting value"),
            (lambda data: rehashed(data[:-8]), "payload truncated at parameter"),
        ],
        ids=["manifest-past-eof", "manifest-not-utf8", "manifest-not-json", "payload-truncated-rehashed"],
    )
    def test_corrupt_bytes_exit_4(self, path, corrupt, message, capsys):
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(corrupt(data))
        with pytest.raises(IntegrityError, match=f"^{re.escape(path)}: {message}"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", path]) == EXIT_INTEGRITY
        err = capsys.readouterr().err
        assert err.startswith("integrity error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_missing_key_exits_4(self, path, key, capsys):
        rewrite_manifest(path, lambda m: m.pop(key))
        with pytest.raises(IntegrityError, match=key):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", path]) == EXIT_INTEGRITY
        assert key in capsys.readouterr().err


class TestBatchGeneration:
    def test_batch_shapes(self):
        task = build_task(tiny_cfg())
        inputs, targets = generate_task_batch(task, Rng(0), 12)
        assert inputs.shape == (12, 3)
        assert targets.shape == (12,)

    def test_batch_reproducible_for_rng_state(self):
        task = build_task(tiny_cfg())
        a = generate_task_batch(task, Rng(3), 8)
        b = generate_task_batch(task, Rng(3), 8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
