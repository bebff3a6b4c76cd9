"""Synthetic routing-sensitive tasks with disjoint train/eval pools.

Both tasks enumerate (or pre-draw) their instance pools once from the task
seed, shuffle, and split, so training and evaluation sets are disjoint and
every batch is reproducible.

Each task owns its head width ``out_dim``, its training ``loss``, the ``score`` whose sum
``evaluate`` divides by the sample count to give ``metric``, and ``eval_set(lo, hi)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import ConfigurationError
from .tensor import Rng, Tensor

# Largest instance pool a task builds: n_groups * operand_range**2 triples that
# GroupedModularAddition enumerates, about 80 bytes of index arrays each, so some
# 84 MB at the limit; and PiecewiseRegression's train_size + eval_size draws and
# its n_experts latent functions.
MAX_INSTANCES = 1 << 20


@dataclass
class GroupedModularAddition:
    """Sequences [group, a, b] with target (a + b) mod m_group.

    The operand range is the lcm of the moduli, which makes the label
    distribution exactly uniform within each group.
    """

    moduli: list[int]
    seed: int
    train_size: int
    eval_size: int
    operand_range: int | None = None
    kind: str = field(default="classification", init=False)
    metric = "accuracy"

    def __post_init__(self) -> None:
        self.n_groups = len(self.moduli)
        lcm = math.lcm(*self.moduli)
        if self.operand_range is None:
            self.operand_range = lcm
        elif self.operand_range % lcm != 0:
            raise ConfigurationError(
                f"operand_range {self.operand_range} must be a multiple of lcm(moduli)={lcm} "
                "to keep labels uniform per group"
            )
        self.vocab_size = self.n_groups + self.operand_range
        self.out_dim = max(self.moduli)
        self.seq_len = 3
        space = self.n_groups * self.operand_range**2
        if space > MAX_INSTANCES:
            raise ConfigurationError(
                f"moduli {self.moduli} and operand_range {self.operand_range} give {space} instances "
                f"(n_groups * operand_range^2); at most {MAX_INSTANCES} are enumerated"
            )
        if self.train_size + self.eval_size > space:
            raise ConfigurationError(
                f"train+eval ({self.train_size}+{self.eval_size}) exceeds instance space {space}"
            )
        g, a, b = np.meshgrid(
            np.arange(self.n_groups),
            np.arange(self.operand_range),
            np.arange(self.operand_range),
            indexing="ij",
        )
        triples = np.stack([g.ravel(), a.ravel(), b.ravel()], axis=1)
        order = Rng(self.seed).spawn("pool")._gen.permutation(len(triples))
        triples = triples[order]
        self._train = triples[: self.train_size]
        self._eval = triples[self.train_size : self.train_size + self.eval_size]

    def encode(self, triples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g, a, b = triples[:, 0], triples[:, 1], triples[:, 2]
        tokens = np.stack([g, self.n_groups + a, self.n_groups + b], axis=1)
        targets = (a + b) % np.asarray(self.moduli)[g]
        return tokens.astype(np.int64), targets.astype(np.int64)

    def train_batch(self, rng: Rng, batch: int) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.integers(0, self.train_size, batch)
        return self.encode(self._train[idx])

    def eval_set(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return self.encode(self._eval[lo:hi])

    def loss(self, outputs: Tensor, targets: np.ndarray) -> Tensor:
        return T.softmax_cross_entropy(outputs, targets)

    def score(self, outputs: np.ndarray, targets: np.ndarray) -> int:
        return int((outputs.argmax(axis=1) == targets).sum())


@dataclass
class PiecewiseRegression:
    """Scalar input mapped through one of N latent piecewise-linear functions.

    The function is picked by a prefix token; slopes are drawn from the task
    seed, and the function is continuous over [-2, 2] with knots at -1, 0, 1.
    """

    n_funcs: int
    seed: int
    train_size: int
    eval_size: int
    kind: str = field(default="regression", init=False)
    metric = "mse"
    out_dim = 1

    def __post_init__(self) -> None:
        if self.n_funcs > MAX_INSTANCES:
            raise ConfigurationError(f"n_experts {self.n_funcs} exceeds the {MAX_INSTANCES} functions a task may draw")
        size = self.train_size + self.eval_size
        if size > MAX_INSTANCES:
            raise ConfigurationError(f"train_size + eval_size = {size} exceeds the {MAX_INSTANCES} a pool may hold")
        self.vocab_size = self.n_funcs
        self.seq_len = 2
        rng = Rng(self.seed).spawn("funcs")
        self.knots = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        self.slopes = rng.gaussian(self.n_funcs, 4)
        self.offsets = rng.gaussian(self.n_funcs)
        self._train_pool = self._pool("train", self.train_size)
        self._eval_pool = self._pool("eval", self.eval_size)

    def apply(self, func_ids: np.ndarray, xs: np.ndarray) -> np.ndarray:
        ys = self.offsets[func_ids].copy()
        for seg in range(4):
            lo, hi = self.knots[seg], self.knots[seg + 1]
            span = np.clip(xs, lo, hi) - lo
            ys += self.slopes[func_ids, seg] * span
        return ys

    def _pool(self, which: str, n: int) -> tuple[np.ndarray, np.ndarray]:
        rng = Rng(self.seed).spawn(f"pool-{which}")
        ids = rng.integers(0, self.n_funcs, n)
        xs = rng.uniform(n, low=-2.0, high=2.0)
        return ids.astype(np.int64), xs

    def train_batch(self, rng: Rng, batch: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        ids, xs = self._train_pool
        pick = rng.integers(0, self.train_size, batch)
        return (ids[pick], xs[pick]), self.apply(ids[pick], xs[pick])

    def eval_set(self, lo: int, hi: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        ids, xs = self._eval_pool[0][lo:hi], self._eval_pool[1][lo:hi]
        return (ids, xs), self.apply(ids, xs)

    def loss(self, outputs: Tensor, targets: np.ndarray) -> Tensor:
        return T.mse(outputs, targets[:, None])

    def score(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        diff = outputs[:, 0] - targets
        return float((diff * diff).sum())


SyntheticTask = GroupedModularAddition | PiecewiseRegression


def build_task(cfg: ModelConfig) -> SyntheticTask:
    if cfg.task == "grouped_modular_addition":
        return GroupedModularAddition(
            list(cfg.moduli), cfg.seed, cfg.train_size, cfg.eval_size, cfg.operand_range
        )
    return PiecewiseRegression(cfg.n_experts, cfg.seed, cfg.train_size, cfg.eval_size)


def generate_task_batch(task: SyntheticTask, rng: Rng, batch: int):
    """Draw a reproducible training batch: (inputs, targets)."""
    return task.train_batch(rng, batch)
