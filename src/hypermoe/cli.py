"""Command-line surface: train, eval, bench, gradcheck, analyze-embeddings, compare.

Exit codes: 0 success, 2 config or argument error, 3 runtime/divergence
error, 4 checkpoint integrity error (corrupt, missing or unreadable).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import LAYER_KINDS, ModelConfig
from .errors import ConfigurationError, DivergenceError, IntegrityError
from .hyper import combine_embeddings, selection_embedding
from .model import Model, build_model
from .tasks import generate_task_batch
from .tensor import Rng, Tape, Tensor, finite_diff_grad
from .training import combined_loss, evaluate, make_optimizer, train_model, train_step

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INTEGRITY = 4


def _read_config_json(path: str) -> dict:
    """The raw config dict of a JSON file; an unreadable or malformed file is a config error."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"{path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: a config must be a JSON object, got {type(raw).__name__}")
    return raw


def _load_config(path: str, **overrides) -> ModelConfig:
    raw = _read_config_json(path)
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return ModelConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = _load_config(args.config, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    model = build_model(cfg)
    rows = train_model(model, metrics_path=os.path.join(args.out, "metrics.csv"))
    save_checkpoint(model, os.path.join(args.out, "checkpoint.bin"), step=cfg.steps)
    ev = evaluate(model, cfg.eval_size)
    metric = ev.get("accuracy", ev.get("mse"))
    print(
        f"train done: kind={cfg.layer_kind} steps={cfg.steps} "
        f"final_loss={rows[-1]['task_loss']:.6f} eval={metric:.6f}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    model, step = load_checkpoint(args.checkpoint)
    ev = evaluate(model, args.n or model.cfg.eval_size)
    print(json.dumps({"step": step, **ev}))
    return EXIT_OK


def _timed_steps(model: Model, phase: str, steps: int, warmup: int, faults: list | None = None) -> float:
    """Samples per second over the post-warmup steps; ``faults``, when given, gets
    their minor page faults per step (rounded) appended.

    Train steps are ``training.train_step`` with the optimizer training builds.
    """
    cfg = model.cfg
    data_rng = Rng(cfg.seed).spawn("bench-data")
    noise_rng = Rng(cfg.seed).spawn("bench-noise")
    opt = make_optimizer(model)
    start = minflt = None
    for step in range(steps):
        if step == warmup:
            start = time.perf_counter()
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        inputs, targets = generate_task_batch(model.task, data_rng, cfg.batch_size)
        if phase == "train":
            train_step(model, opt, inputs, targets, noise_rng)
        else:
            with T.no_grad():
                model.forward(inputs, training=False)
    duration = time.perf_counter() - start
    if faults is not None:
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
        faults.append(round(minflt / (steps - warmup)))
    return (steps - warmup) * cfg.batch_size / duration


def cmd_bench(args) -> int:
    if not args.steps > args.warmup >= 1:
        raise ConfigurationError("bench requires steps > warmup >= 1")
    methods = args.methods or [None]
    reports = []
    for method in methods:
        cfg = _load_config(args.config, seed=args.seed, layer_kind=method)
        model = build_model(cfg)
        t0 = time.perf_counter()
        faults: list[int] = []
        sps = _timed_steps(model, args.phase, args.steps, args.warmup, faults)
        reports.append(
            {
                "method": cfg.layer_kind,
                "phase": args.phase,
                "samples_per_second": sps,
                "minor_faults_per_step": faults[0],
                "steps": args.steps - args.warmup,
                "duration_seconds": time.perf_counter() - t0,
                "config": cfg.to_dict(),
            }
        )
    out: dict = {"reports": reports} if len(reports) > 1 else reports[0]
    if len(reports) == 2:
        out["ratio"] = reports[1]["samples_per_second"] / reports[0]["samples_per_second"]
        out["ratio_of"] = f"{reports[1]['method']}/{reports[0]['method']}"
    print(json.dumps(out))
    return EXIT_OK


GRADCHECK_MAX_PARAMS = 100_000


def gradcheck_model(cfg: ModelConfig, tol: float = 1e-4) -> list[dict]:
    """Analytic vs central-difference gradients, one row per parameter group and one per
    expert of a stacked bank, the only 3-D parameters (``l0.experts.w1[2]``), so each error
    is scaled by its own largest gradient."""
    model = build_model(cfg)
    if model.total_params() >= GRADCHECK_MAX_PARAMS:
        raise ConfigurationError(
            f"model has {model.total_params()} parameters; gradcheck is limited to "
            f"{GRADCHECK_MAX_PARAMS} — shrink h, d_ff, or the task vocabulary"
        )
    data_rng = Rng(cfg.seed).spawn("gradcheck")
    inputs, targets = generate_task_batch(model.task, data_rng, min(cfg.batch_size, 8))

    def loss_value() -> Tensor:
        result = model.forward(inputs, training=False)
        total, _, _ = combined_loss(result, targets, model.task, cfg)
        return total

    with Tape():
        loss_value().backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros(p.shape)) for name, p in model.params.items()}
    model.zero_grads()

    rows = []
    for name, p in model.params.items():
        groups = [(f"{name}[{e}]", e) for e in range(len(p.data))] if p.data.ndim == 3 else [(name, ...)]
        for group, key in groups:
            def f(candidate: Tensor, _p=p, _key=key) -> float:
                saved = _p.data[_key].copy()
                _p.data[_key] = candidate.data
                try:
                    with T.no_grad():
                        return loss_value().item()
                finally:
                    _p.data[_key] = saved

            fd = finite_diff_grad(f, Tensor(p.data[key].copy()), step=1e-5)
            scale = max(np.max(np.abs(fd)), 1e-6)
            err = float(np.max(np.abs(analytic[name][key] - fd)) / scale)
            rows.append({"group": group, "max_rel_error": err, "passed": err < tol})
    return rows


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args.config, seed=args.seed)
    rows = gradcheck_model(cfg)
    all_ok = True
    for row in rows:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"{status}  {row['group']:<24} max_rel_error={row['max_rel_error']:.3e}")
        all_ok &= row["passed"]
    print(f"gradcheck: {'all groups pass' if all_ok else 'FAILURES present'}")
    return EXIT_OK if all_ok else EXIT_RUNTIME


def _pairwise_distances(rows: np.ndarray) -> np.ndarray:
    diff = rows[:, None, :] - rows[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def embedding_distance_matrices(model: Model, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances between the expert embeddings ``layer`` runs with, and its leave-one-out codes."""
    if model.cfg.layer_kind != "hypermoe":
        raise ConfigurationError("analyze-embeddings requires a hypermoe checkpoint")
    n = model.cfg.n_experts
    # selection i: aggregate over all experts except i
    mask = Tensor(1.0 - np.eye(n))
    layers, mlp, proj, _ = model.hyper
    with T.no_grad():
        experts = model.expert_table(layer)
        k = combine_embeddings(selection_embedding(mask, experts, mlp), layer, layers, proj)
    return _pairwise_distances(experts.data), _pairwise_distances(k.data)


def _write_matrix(path: str, matrix: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


def cmd_analyze_embeddings(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    if args.layer >= model.cfg.n_layers:
        raise ConfigurationError(f"--layer {args.layer} is out of range for a {model.cfg.n_layers}-layer model")
    experts_d, selection_d = embedding_distance_matrices(model, args.layer)
    os.makedirs(args.out, exist_ok=True)
    _write_matrix(os.path.join(args.out, "experts_dist.csv"), experts_d)
    _write_matrix(os.path.join(args.out, "selection_dist.csv"), selection_d)
    print(f"wrote {args.out}/experts_dist.csv and {args.out}/selection_dist.csv")
    return EXIT_OK


def run_compare(cfg_base: dict, methods: list[str], seeds: list[int]) -> list[dict]:
    rows = []
    for method in methods:
        for seed in seeds:
            raw = dict(cfg_base)
            raw["layer_kind"] = method
            raw["seed"] = seed
            cfg = ModelConfig.from_dict(raw)
            model = build_model(cfg)
            train_model(model)
            ev = evaluate(model, cfg.eval_size)
            metric = ev.get("accuracy", ev.get("mse"))
            rows.append({"method": method, "seed": seed, "metric": metric})
    return rows


def cmd_compare(args) -> int:
    raw = _read_config_json(args.config)
    methods = args.methods
    rows = run_compare(raw, methods, args.seeds)
    print("method,seed,metric")
    for row in rows:
        print(f"{row['method']},{row['seed']},{row['metric']!r}")
    print("method,mean,spread")
    for method in methods:
        vals = [r["metric"] for r in rows if r["method"] == method]
        print(f"{method},{float(np.mean(vals))!r},{float(np.max(vals) - np.min(vals))!r}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "compare.csv"), "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=["method", "seed", "metric"])
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a config error: one line naming the flag, exit 2."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _path(text: str) -> str:
    """A path, not empty; whether it can be read or written is checked where it is used."""
    if not text:
        raise argparse.ArgumentTypeError("must name a path, got ''")
    return text


def _out_dir(text: str) -> str:
    """An output directory path, not empty: neither it nor any existing parent may be a file."""
    path = os.path.abspath(_path(text))
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a file, not a directory")
    return text


def _non_negative_int_list(text: str) -> list[int]:
    return [_non_negative_int(part) for part in text.split(",")]


def _layer_kinds(text: str) -> list[str]:
    unknown = [m for m in text.split(",") if m not in LAYER_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown layer kind(s) {unknown}, expected one of {LAYER_KINDS}")
    return text.split(",")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypermoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--out", type=_out_dir, default="out")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--n", type=_positive_int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure samples/second")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--phase", choices=["train", "eval"], default="train")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--methods", type=_layer_kinds, default=None, help="comma-separated layer kinds; two give a ratio")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("analyze-embeddings", help="expert/selection embedding distance matrices")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--layer", type=_non_negative_int, default=0)
    p.add_argument("--out", type=_out_dir, default="out")
    p.set_defaults(func=cmd_analyze_embeddings)

    p = sub.add_parser("compare", help="train a (method x seed) grid and summarize")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--methods", type=_layer_kinds, default="moe,moe_share,hypermoe")
    p.add_argument("--seeds", type=_non_negative_int_list, default="0,1,2")
    p.add_argument("--out", type=_out_dir, default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a non-finite loss is reported as a divergence, once
            return args.func(args)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as e:
        print(f"integrity error: {e}", file=sys.stderr)
        return EXIT_INTEGRITY
    except DivergenceError as e:
        print(f"divergence at step {e.step}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (IndexError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
