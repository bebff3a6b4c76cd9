import json
import os
import warnings

import numpy as np
import pytest

from hypermoe.checkpoint import load_checkpoint, save_checkpoint
from hypermoe.cli import (
    EXIT_CONFIG,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_RUNTIME,
    GRADCHECK_MAX_PARAMS,
    embedding_distance_matrices,
    gradcheck_model,
    main,
    run_compare,
)
from hypermoe.config import ModelConfig
from hypermoe.errors import ConfigurationError
from hypermoe.model import EVAL_CHUNK, MAX_ACTIVATION, build_model
from hypermoe.tasks import MAX_INSTANCES
from hypermoe.tensor import Tensor
from hypermoe.training import evaluate, train_model

TINY = {
    "h": 16,
    "d_ff": 16,
    "n_experts": 3,
    "top_k": 1,
    "n_layers": 2,
    "t": 4,
    "t_prime": 4,
    "t_k": 4,
    "b": 2,
    "moduli": [3, 4],
    "train_size": 64,
    "eval_size": 32,
    "steps": 8,
    "batch_size": 16,
    "seed": 0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def write_config(tmp_path, **overrides):
    cfg = {**TINY, **overrides}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestTrainCommand:
    def test_writes_artifacts_and_exits_zero(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--config", config_path, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
        assert "train done" in capsys.readouterr().out

    def test_rerun_metrics_byte_identical(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["train", "--config", config_path, "--out", out_a])
        main(["train", "--config", config_path, "--out", out_b])
        a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
        b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
        assert a == b

    def test_metrics_header(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        first = open(os.path.join(out, "metrics.csv")).readline().strip()
        assert first == "step,task_loss,aux_loss,total_loss,util_entropy"

    def test_malformed_json_exit_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"h": 16,\n  "oops"\n}')
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_key_exit_2_names_key(self, tmp_path, capsys):
        path = write_config(tmp_path, bogus_knob=1)
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "bogus_knob" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_divergence_exit_3_with_one_line(self, tmp_path, capsys):
        # the overflow that makes the loss non-finite raises no numpy warning of its own
        path = write_config(tmp_path, learning_rate=1e300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_RUNTIME
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("divergence at step ") and err.count("\n") == 1


class TestInputBounds:
    def test_piecewise_pool_above_the_bound_exit_2_names_both_sizes(self, tmp_path, capsys):
        # one instance over the bound: without it, this pool fits in memory and trains
        train_size = MAX_INSTANCES - TINY["eval_size"] + 1
        path = write_config(tmp_path, task="piecewise_regression", train_size=train_size, steps=1)
        assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "train_size" in err and "eval_size" in err and err.count("\n") == 1

    def test_huge_batch_size_exit_2_before_allocating(self, tmp_path, capsys):
        path = write_config(tmp_path, batch_size=10**10, steps=1)
        assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: batch_size 10000000000:") and err.count("\n") == 1

    def test_largest_batch_under_the_activation_bound_builds(self):
        # TINY's widest per-token row is its generated expert's h * b = 32 values, 3 tokens a sample
        largest = MAX_ACTIVATION // (3 * TINY["h"] * TINY["b"])
        assert build_model(ModelConfig.from_dict({**TINY, "batch_size": largest})).cfg.batch_size == largest
        with pytest.raises(ConfigurationError, match="^batch_size "):
            build_model(ModelConfig.from_dict({**TINY, "batch_size": largest + 1}))

    def test_eval_chunk_above_the_activation_bound_exit_2_names_eval_size(self, tmp_path, capsys):
        # one sample a step fits, but an eval forward of EVAL_CHUNK samples would need 1536 x 2**18 values
        path = write_config(tmp_path, layer_kind="dense", h=2, b=1, d_ff=2**18, moduli=[5, 3, 4, 6], batch_size=1,
                            eval_size=EVAL_CHUNK)
        assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: eval_size {EVAL_CHUNK}:") and err.count("\n") == 1

    def test_largest_eval_chunk_under_the_activation_bound_builds(self):
        # each of 3 tokens a sample adds a dense FFN row of d_ff values
        cfg = {**TINY, "layer_kind": "dense", "h": 2, "b": 1, "d_ff": 2**16, "moduli": [5, 3, 4, 6], "batch_size": 1}
        largest = MAX_ACTIVATION // (3 * 2**16)
        assert largest < EVAL_CHUNK
        assert build_model(ModelConfig.from_dict({**cfg, "eval_size": largest})).cfg.eval_size == largest
        with pytest.raises(ConfigurationError, match=f"^eval_size {largest + 1}: "):
            build_model(ModelConfig.from_dict({**cfg, "eval_size": largest + 1}))


class TestEvalCommand:
    def test_reports_checkpoint_metrics(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        capsys.readouterr()
        code = main(["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"), "--n", "16"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["step"] == TINY["steps"]
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_corrupt_checkpoint_exit_4(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["train", "--config", config_path, "--out", out])
        ck = os.path.join(out, "checkpoint.bin")
        blob = bytearray(open(ck, "rb").read())
        blob[-3] ^= 0x5A
        open(ck, "wb").write(bytes(blob))
        assert main(["eval", "--checkpoint", ck]) == EXIT_INTEGRITY

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_checkpoint_exit_4_names_path(self, tmp_path, capsys, kind):
        path = str(tmp_path if kind == "directory" else tmp_path / "nothere.bin")
        assert main(["eval", "--checkpoint", path]) == EXIT_INTEGRITY
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert path in err


class TestBenchCommand:
    def test_single_method_report(self, config_path, capsys):
        code = main(["bench", "--config", config_path, "--steps", "4", "--warmup", "1"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["samples_per_second"] > 0
        assert report["phase"] == "train"
        faults = report["minor_faults_per_step"]
        assert isinstance(faults, int) and faults >= 0

    def test_same_method_ratio_near_one(self, config_path, capsys):
        code = main(
            [
                "bench",
                "--config",
                config_path,
                "--methods",
                "moe,moe",
                "--steps",
                "30",
                "--warmup",
                "10",
                "--phase",
                "eval",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_of"] == "moe/moe"
        # identical work; the wide band only guards against mixed-up configs,
        # not scheduler jitter on a loaded machine
        assert 0.3 < report["ratio"] < 3.0

    def test_bad_step_counts_exit_2(self, config_path):
        assert main(["bench", "--config", config_path, "--steps", "2", "--warmup", "2"]) == EXIT_CONFIG


class TestGradcheckCommand:
    def test_hypermoe_toy_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, h=8, d_ff=8, layer_kind="hypermoe", noise_enabled=False)
        assert main(["gradcheck", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all groups pass" in out
        assert "FAIL" not in out.replace("FAILURES", "")

    def test_model_above_the_limit_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, d_ff=1024)
        assert main(["gradcheck", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"gradcheck is limited to {GRADCHECK_MAX_PARAMS}" in err and err.count("\n") == 1

    def test_detects_injected_backward_fault(self):
        # scale gradients flowing through the routed experts by 5% without
        # touching the forward values; the affected groups must be reported as failing
        cfg = ModelConfig(**{**TINY, "h": 8, "d_ff": 8, "layer_kind": "moe", "noise_enabled": False})
        rows = gradcheck_model(cfg)
        assert all(r["passed"] for r in rows)

        from hypermoe import tensor as tensor_mod

        saved = tensor_mod.routed_experts

        def broken_routed_experts(*args):
            out = saved(*args)
            bk = out._backward
            if bk is not None:
                def corrupted(g):
                    bk(g * 1.05)

                out._backward = corrupted
            return out

        tensor_mod.routed_experts = broken_routed_experts
        try:
            rows = gradcheck_model(cfg)
        finally:
            tensor_mod.routed_experts = saved
        assert any(not r["passed"] for r in rows)


class TestAnalyzeEmbeddings:
    def test_distance_matrix_properties(self, tmp_path, capsys):
        path = write_config(tmp_path, layer_kind="hypermoe")
        out = str(tmp_path / "run")
        main(["train", "--config", path, "--out", out])
        emb_out = str(tmp_path / "emb")
        code = main(
            ["analyze-embeddings", "--checkpoint", os.path.join(out, "checkpoint.bin"), "--out", emb_out]
        )
        assert code == EXIT_OK
        for name in ("experts_dist.csv", "selection_dist.csv"):
            matrix = np.loadtxt(os.path.join(emb_out, name), delimiter=",")
            n = TINY["n_experts"]
            assert matrix.shape == (n, n)
            assert np.allclose(matrix, matrix.T)
            assert np.allclose(np.diag(matrix), 0.0)
            assert np.all(matrix >= 0)

    def test_two_expert_selection_is_mlp_of_other_row(self):
        # with N=2, the leave-one-out aggregate for expert 0 is exactly the
        # embedding of expert 1 pushed through the selection MLP + projector
        cfg = ModelConfig(
            **{**TINY, "n_experts": 2, "layer_kind": "hypermoe", "moduli": [3, 4], "top_k": 1}
        )
        model = build_model(cfg)
        _, mlp, _, _ = model.hyper
        from hypermoe.hyper import selection_embedding
        mask = Tensor(1.0 - np.eye(2))
        p = selection_embedding(mask, model.expert_table(0), mlp)
        single = selection_embedding(Tensor(np.array([[0.0, 1.0]])), model.expert_table(0), mlp)
        assert np.allclose(p.data[0], single.data[0])
        _, sel_d = embedding_distance_matrices(model, 0)
        assert sel_d.shape == (2, 2)

    def test_compressed_checkpoint_reads_the_layer_embeddings(self):
        # a compressed model's forward replaces the learned expert table, which
        # then never trains, by each layer's compressed expert weights
        cfg = ModelConfig(**{**TINY, "layer_kind": "hypermoe", "embedding_source": "compressed", "steps": 3})
        model = build_model(cfg)
        train_model(model)
        experts_d = []
        for layer in range(cfg.n_layers):
            rows = model.expert_table(layer).data
            want = np.sqrt(((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=-1))
            experts_d.append(embedding_distance_matrices(model, layer)[0])
            assert np.array_equal(experts_d[-1], want)
        assert not np.allclose(experts_d[0], experts_d[1])

    def test_rejects_non_hypermoe(self, tmp_path):
        path = write_config(tmp_path, layer_kind="moe")
        out = str(tmp_path / "run")
        main(["train", "--config", path, "--out", out])
        code = main(["analyze-embeddings", "--checkpoint", os.path.join(out, "checkpoint.bin")])
        assert code == EXIT_CONFIG


class TestCompareCommand:
    def test_grid_rows_and_summary(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(
            ["compare", "--config", config_path, "--methods", "moe,hypermoe", "--seeds", "0,1", "--out", out]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,seed,metric"
        assert len([l for l in lines if l.startswith(("moe,", "hypermoe,"))]) >= 6
        with open(os.path.join(out, "compare.csv")) as f:
            rows = f.read().strip().splitlines()
        assert rows[0] == "method,seed,metric"
        assert len(rows) == 5

    def test_single_cell_matches_direct_train(self, config_path):
        rows = run_compare(dict(TINY), ["moe"], [0])
        cfg = ModelConfig(**{**TINY, "layer_kind": "moe", "seed": 0})
        model = build_model(cfg)
        train_model(model)
        direct = evaluate(model, cfg.eval_size)["accuracy"]
        assert rows == [{"method": "moe", "seed": 0, "metric": direct}]

    @pytest.mark.parametrize(
        "content", [None, '{"h": 16,\n  "oops"\n}', "[1, 2]"], ids=["missing", "malformed", "not_an_object"]
    )
    def test_unreadable_config_exit_2_names_path(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        assert main(["compare", "--config", str(path), "--methods", "moe", "--seeds", "0"]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(path) in err


@pytest.mark.parametrize("command", ["compare", "bench"])
@pytest.mark.parametrize("methods", ["moe,foo", "hypermoe,", "Moe"])
def test_bad_method_exit_2_before_training(command, methods, config_path, capsys, monkeypatch):
    import hypermoe.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_model", lambda cfg: built.append(cfg) or build_model(cfg))
    assert main([command, "--config", config_path, "--methods", methods]) == EXIT_CONFIG
    assert built == []
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "--methods" in err


@pytest.mark.parametrize("command", ["train", "analyze-embeddings", "compare"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_naming_a_file_exit_2_before_work(command, out, config_path, tmp_path, capsys, monkeypatch):
    import hypermoe.cli as cli

    calls = []
    monkeypatch.setattr(cli, "build_model", lambda cfg: calls.append(cfg) or build_model(cfg))
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: calls.append(path) or load_checkpoint(path))
    (tmp_path / "file").write_text("")
    source = ["--checkpoint", str(tmp_path / "ck.bin")] if command == "analyze-embeddings" else ["--config", config_path]
    assert main([command, *source, "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert calls == []
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "--out" in err and str(tmp_path / "file") in err


EMPTY_PATHS = [
    ("train", "--out"), ("analyze-embeddings", "--out"), ("compare", "--out"),
    ("train", "--config"), ("bench", "--config"), ("gradcheck", "--config"), ("compare", "--config"),
    ("eval", "--checkpoint"), ("analyze-embeddings", "--checkpoint"),
]


@pytest.mark.parametrize(
    "command, flag", EMPTY_PATHS, ids=[c if f == "--out" else c + f for c, f in EMPTY_PATHS]
)
def test_empty_out_exit_2_before_work(command, flag, config_path, tmp_path, capsys, monkeypatch):
    # an empty --out once failed in makedirs (exit 3), or made compare skip its csv; an
    # empty --config or --checkpoint once failed on open, with a message naming no flag
    import hypermoe.cli as cli

    calls = []
    monkeypatch.setattr(cli, "build_model", lambda cfg: calls.append(cfg) or build_model(cfg))
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: calls.append(path) or load_checkpoint(path))
    source = "--checkpoint" if command in ("eval", "analyze-embeddings") else "--config"
    args = {source: str(tmp_path / "ck.bin") if source == "--checkpoint" else config_path}
    args[flag] = ""
    assert main([command, *(part for pair in args.items() for part in pair)]) == EXIT_CONFIG
    assert calls == []
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and flag in err


def test_compare_summary_fields_are_plain_floats(config_path, capsys):
    assert main(["compare", "--config", config_path, "--methods", "moe", "--seeds", "0,1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    summary = lines[lines.index("method,mean,spread") + 1 :]
    assert [line.split(",")[0] for line in summary] == ["moe"]
    for line in summary:
        for field in line.split(",")[1:]:
            float(field)


@pytest.fixture
def one_layer_checkpoint(tmp_path):
    path = str(tmp_path / "one_layer.bin")
    save_checkpoint(build_model(ModelConfig(**{**TINY, "n_layers": 1})), path)
    return path


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("eval", "--n", "-5"),
        ("eval", "--n", "0"),
        ("compare", "--seeds", "a"),
        ("compare", "--seeds", ""),
        ("analyze-embeddings", "--layer", "7"),
        ("analyze-embeddings", "--layer", "-1"),
    ],
)
def test_bad_argument_exit_2_names_flag(config_path, one_layer_checkpoint, capsys, command, flag, value):
    source = ["--config", config_path] if command == "compare" else ["--checkpoint", one_layer_checkpoint]
    assert main([command, *source, flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert flag in err
