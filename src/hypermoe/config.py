"""Model/training configuration and the type and range of each field."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigurationError

LAYER_KINDS = ("dense", "moe", "moe_share", "hypermoe")
CONDITION_ON = ("selected", "unselected")
EMBEDDING_SOURCES = ("learned", "compressed")
TASKS = ("grouped_modular_addition", "piecewise_regression")


def _integer(low: int):
    return lambda v: type(v) is int and v >= low, f"an integer >= {low}"


def _number(ok, text: str):
    return lambda v: type(v) in (int, float) and math.isfinite(v) and ok(v), text


def _one_of(options: tuple):
    return lambda v: v in options, f"one of {options}"


# field -> (check, what the check requires). OPTIONAL fields may also be None,
# which derives their value from other fields; __post_init__ checks combinations.
FIELD_RULES = {
    **dict.fromkeys(
        ("h", "d_ff", "n_experts", "top_k", "n_layers", "t", "t_prime", "t_k", "b", "operand_range",
         "train_size", "eval_size", "steps", "batch_size"),
        _integer(1),
    ),
    "seed": _integer(0),
    "noise_enabled": (lambda v: type(v) is bool, "true or false"),
    "layer_kind": _one_of(LAYER_KINDS),
    "condition_on": _one_of(CONDITION_ON),
    "embedding_source": _one_of(EMBEDDING_SOURCES),
    "task": _one_of(TASKS),
    "moduli": (
        lambda v: type(v) in (list, tuple) and v and all(type(m) is int and m >= 2 for m in v),
        "a nonempty list of integers >= 2",
    ),
    "aux_loss_coef": _number(lambda v: v >= 0, "a number >= 0"),
    "learning_rate": _number(lambda v: v > 0, "a number > 0"),
    "warmup_frac": _number(lambda v: 0 <= v <= 1, "a number in [0, 1]"),
}
OPTIONAL = ("d_ff", "b", "operand_range")


@dataclass
class ModelConfig:
    # dimensions
    h: int = 32
    d_ff: int | None = None          # defaults to 4*h
    n_experts: int = 4
    top_k: int = 1
    n_layers: int = 2
    t: int = 8                       # selection embedding dim
    t_prime: int = 8                 # expert / layer embedding dim
    t_k: int = 8                     # hypernetwork input dim
    b: int | None = None             # bottleneck, defaults to max(1, h // 4)
    # layer behaviour
    layer_kind: str = "hypermoe"
    aux_loss_coef: float = 0.01
    noise_enabled: bool = True
    condition_on: str = "unselected"
    embedding_source: str = "learned"
    # task
    task: str = "grouped_modular_addition"
    moduli: list[int] = field(default_factory=lambda: [5, 3, 4, 6])
    operand_range: int | None = None  # defaults to lcm(moduli)
    train_size: int = 8192
    eval_size: int = 2000
    # optimization
    seed: int = 0
    learning_rate: float = 1e-3
    steps: int = 400
    batch_size: int = 64
    warmup_frac: float = 0.1

    def __post_init__(self) -> None:
        for name, (ok, requirement) in FIELD_RULES.items():
            value = getattr(self, name)
            if not (value is None and name in OPTIONAL or ok(value)):
                raise ConfigurationError(f"{name} must be {requirement}, got {value!r}")
        if self.d_ff is None:
            self.d_ff = 4 * self.h
        if self.b is None:
            self.b = max(1, self.h // 4)
        if self.top_k > self.n_experts:
            raise ConfigurationError(f"top_k={self.top_k} exceeds n_experts={self.n_experts}")
        if self.layer_kind == "hypermoe" and self.top_k >= self.n_experts:
            raise ConfigurationError(
                "hypermoe requires top_k < n_experts (at least one unselected expert)"
            )
        if self.b >= self.h:
            raise ConfigurationError(f"bottleneck b={self.b} must be smaller than h={self.h}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        return cls(**d)
