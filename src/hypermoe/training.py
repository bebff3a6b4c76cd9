"""Adam optimizer, training loop with divergence guard, and evaluation."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import DivergenceError
from .model import EVAL_CHUNK, ForwardResult, Model
from .moe import load_balance_loss
from .tasks import SyntheticTask, generate_task_batch
from .tensor import Rng, Tape, Tensor

METRICS_HEADER = ["step", "task_loss", "aux_loss", "total_loss", "util_entropy"]


class Adam:
    """Adam with linear learning-rate warm-up over the first warmup_steps.

    Each update runs in place, through two temporaries that it reuses. A
    parameter with no gradient is left untouched, moments included. A
    parameter with ``grad_rows`` (an expert stack) is updated row by row in
    those rows only, so an expert no token was routed to keeps its weights
    and moments.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, warmup_steps: int, total_steps: int) -> None:
        self.params = params
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        lr = self.lr
        if self.warmup_steps > 0:
            lr *= min(1.0, self.t / self.warmup_steps)
        if self.total_steps > self.warmup_steps and self.t > self.warmup_steps:
            # cosine decay to 10% of peak after warm-up
            frac = (self.t - self.warmup_steps) / (self.total_steps - self.warmup_steps)
            lr *= 0.55 + 0.45 * np.cos(np.pi * min(1.0, frac))
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m, v = self._m[name], self._v[name]
            views = [(p.data, p.grad, m, v)]
            if p.grad_rows is not None:
                views = [(p.data[r], p.grad[r], m[r], v[r]) for r in p.grad_rows]
            for w, g, m, v in views:
                # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
                # w -= lr (m / bias1) / (sqrt(v / bias2) + eps), each in this operation order
                s = np.multiply(g, 1.0 - b1)
                m *= b1
                m += s
                v *= b2
                np.multiply(g, 1.0 - b2, out=s)
                v += np.multiply(s, g, out=s)
                np.divide(m, bias1, out=s)
                s *= lr
                t = np.divide(v, bias2)
                np.sqrt(t, out=t)
                t += self.eps
                s /= t
                w -= s


def task_loss(result: ForwardResult, targets, kind: str) -> Tensor:
    if kind == "classification":
        return T.softmax_cross_entropy(result.outputs, targets)
    return T.mse(result.outputs, np.asarray(targets)[:, None])


def utilization_histogram(result: ForwardResult, n_experts: int) -> np.ndarray:
    """Token-to-expert assignment counts summed over MoE layers."""
    hist = np.zeros(n_experts)
    for d in result.decisions:
        hist += d.binary_mask.sum(axis=0)
    return hist


def utilization_entropy(hist: np.ndarray) -> float:
    total = hist.sum()
    if total == 0:
        return 0.0
    p = hist[hist > 0] / total
    return float(-(p * np.log(p)).sum())


def combined_loss(result: ForwardResult, targets, task: SyntheticTask, cfg: ModelConfig) -> tuple[Tensor, float, float]:
    """Total loss plus (task, aux) scalars for logging; the aux loss is the mean of each
    MoE layer's load-balance loss, built here from ``result.decisions``."""
    base = task_loss(result, targets, task.kind)
    balance = [load_balance_loss(d) for d in result.decisions]
    if balance and cfg.aux_loss_coef > 0:
        aux = sum(balance[1:], balance[0]) * (1.0 / len(balance))
        total = base + aux * cfg.aux_loss_coef
        return total, base.item(), aux.item()
    mean_aux = float(np.mean([a.item() for a in balance])) if balance else 0.0
    return base, base.item(), mean_aux


def make_optimizer(model: Model) -> Adam:
    """Adam with the configured learning rate, warm-up and cosine schedule."""
    cfg = model.cfg
    warmup = int(cfg.warmup_frac * cfg.steps)
    return Adam(model.params, lr=cfg.learning_rate, warmup_steps=warmup, total_steps=cfg.steps)


def train_step(model: Model, opt: Adam, inputs, targets, noise_rng: Rng) -> tuple[ForwardResult, float, float, float]:
    """One optimizer step on one batch; returns (result, total, task, aux) losses.

    Raises DivergenceError, naming the optimizer's step count, on a
    non-finite loss, before any gradient is applied.
    """
    with Tape():
        result = model.forward(inputs, training=True, noise_rng=noise_rng)
        total, task_l, aux_l = combined_loss(result, targets, model.task, model.cfg)
        if not np.isfinite(total.item()):
            raise DivergenceError(opt.t)
        total.backward()
    opt.step()
    model.zero_grads()
    return result, total.item(), task_l, aux_l


def train_model(model: Model, metrics_path: str | None = None) -> list[dict]:
    """Run the configured number of steps; returns one metrics row per step."""
    cfg = model.cfg
    data_rng = Rng(cfg.seed).spawn("data")
    noise_rng = Rng(cfg.seed).spawn("noise")
    opt = make_optimizer(model)
    rows: list[dict] = []
    for step in range(cfg.steps):
        inputs, targets = generate_task_batch(model.task, data_rng, cfg.batch_size)
        result, total_l, task_l, aux_l = train_step(model, opt, inputs, targets, noise_rng)
        hist = utilization_histogram(result, cfg.n_experts)
        rows.append(
            {
                "step": step,
                "task_loss": task_l,
                "aux_loss": aux_l,
                "total_loss": total_l,
                "util_entropy": utilization_entropy(hist),
            }
        )
    if metrics_path is not None:
        write_metrics_csv(metrics_path, rows)
    return rows


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=METRICS_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def evaluate(model: Model, n: int) -> dict:
    """Deterministic (noise-free) metrics over n fresh eval samples."""
    task = model.task
    inputs, targets = task.eval_set(n)
    n_experts = model.cfg.n_experts
    hist = np.zeros(n_experts)
    correct = 0
    sq_err = 0.0
    total = len(targets)  # at most eval_size: Model's activation bound covers each chunk
    for lo in range(0, total, EVAL_CHUNK):
        hi = min(lo + EVAL_CHUNK, total)
        batch_inputs = (
            inputs[lo:hi] if task.kind == "classification" else (inputs[0][lo:hi], inputs[1][lo:hi])
        )
        with Tape(), T.no_grad():  # the Tape stays for observers that count its (zero) records
            result = model.forward(batch_inputs, training=False)
        hist += utilization_histogram(result, n_experts)
        if task.kind == "classification":
            preds = result.outputs.data.argmax(axis=1)
            correct += int((preds == targets[lo:hi]).sum())
        else:
            diff = result.outputs.data[:, 0] - targets[lo:hi]
            sq_err += float((diff * diff).sum())
    metrics = {"n": total, "utilization": hist.tolist(), "util_entropy": utilization_entropy(hist)}
    if task.kind == "classification":
        metrics["accuracy"] = correct / total
    else:
        metrics["mse"] = sq_err / total
    return metrics
