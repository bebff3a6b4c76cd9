"""Switch-style sparse mixture-of-experts layer.

Noisy top-k gating over N expert FFNs, sparse combination of the selected
experts' outputs, the load-balancing auxiliary loss, and the MoE-Share
baseline (routed experts plus one always-on shared MLP).

A layer's N experts are stored stacked: one W1 of shape (N, h, d_ff) and one
W2 of shape (N, d_ff, h), whose row e is expert e. Dispatch is slot-ordered:
each token's K routing decisions are T*K flat slots. ``expert_forward``,
given the gate decision, records one ``tensor.routed_experts`` node per
layer: it sorts the slots by expert once, runs each used expert once on its
contiguous slice of slot rows, and returns the gate-weighted sum over each
token's K slots. The node records which expert rows it ran, so the optimizer
leaves an unused expert untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .tensor import Rng, Tensor


@dataclass
class GateConfig:
    num_experts: int
    top_k: int
    noise_enabled: bool
    w_gate: Tensor      # (h, N)
    w_noise: Tensor     # (h, N)

    def __post_init__(self) -> None:
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigurationError(
                f"top_k={self.top_k} must satisfy 1 <= top_k <= num_experts={self.num_experts}"
            )
        if self.w_gate.shape[-1] != self.num_experts or self.w_noise.shape != self.w_gate.shape:
            raise ConfigurationError(
                f"gate weight shapes {self.w_gate.shape}/{self.w_noise.shape} "
                f"inconsistent with num_experts={self.num_experts}"
            )


@dataclass
class GateDecision:
    """Per-token routing outcome of the noisy top-k gate."""

    router_probs: Tensor        # (T, N), rows sum to 1
    selected: np.ndarray        # (T, K) int expert indices, by descending prob
    gate_values: Tensor         # (T, K) retained softmax values at `selected`
    binary_mask: np.ndarray     # (T, N) 0/1, exactly K ones per row

    @property
    def num_tokens(self) -> int:
        return self.router_probs.shape[0]

    @property
    def num_experts(self) -> int:
        return self.router_probs.shape[1]


@dataclass
class ExpertBank:
    """The N expert FFNs of one MoE layer, stacked: row e of ``w1`` and ``w2`` is expert e."""

    w1: Tensor  # (N, h, d_ff)
    w2: Tensor  # (N, d_ff, h)

    def __post_init__(self) -> None:
        s1, s2 = self.w1.shape, self.w2.shape
        if len(s1) != 3 or s2 != (s1[0], s1[2], s1[1]):
            raise ConfigurationError(f"expert bank needs stacks (N, h, d_ff) and (N, d_ff, h), got {s1} and {s2}")

    @property
    def num_experts(self) -> int:
        return self.w1.shape[0]


@dataclass
class SharedMlp:
    """MoE-Share baseline: one expert-sized MLP applied to every token."""

    w1: Tensor  # (h, d_ff)
    w2: Tensor  # (d_ff, h)


def noisy_topk_gate(
    x: Tensor,
    cfg: GateConfig,
    rng: Rng | None = None,
    training: bool = False,
) -> GateDecision:
    """Route each token: softmax over (optionally noised) gate logits, keep top-k.

    Ties are broken toward the lower expert index. Noise is applied only in
    training mode and requires an rng.
    """
    logits = x @ cfg.w_gate
    if training and cfg.noise_enabled:
        if rng is None:
            raise ConfigurationError("noisy gating in training mode requires an rng")
        noise = Tensor(rng.gaussian(*logits.shape))
        logits = logits + noise * T.softplus(x @ cfg.w_noise)
    probs = T.softmax(logits)

    # stable argsort of -p keeps the lower index first among ties
    order = np.argsort(-probs.data, axis=1, kind="stable")
    selected = order[:, : cfg.top_k]

    mask = np.zeros(probs.shape)
    np.put_along_axis(mask, selected, 1.0, axis=1)

    gate_values = T.take_per_row(probs, selected)
    return GateDecision(probs, selected, gate_values, mask)


def expert_forward(x: Tensor, expert: tuple, decision: GateDecision | None = None) -> Tensor:
    """Expert FFN relu(x W1) W2: one (W1, W2) pair run on every row, or, given ``decision``,
    a bank's (W1, W2) stacks, each row run through its K selected experts and summed by gate value."""
    w1, w2 = expert
    if x.shape[-1] != w1.shape[-2]:
        raise DimensionError(f"expert_forward: x {x.shape} vs W1 {w1.shape[-2:]}")
    if decision is None:
        return T.relu(x @ w1) @ w2
    return T.routed_experts(x, w1, w2, decision.selected, decision.gate_values)


def moe_forward(x: Tensor, bank: ExpertBank, decision: GateDecision) -> Tensor:
    """y_i = sum_k gate_ik * E_sel(x_i) over the K experts token i selects, in one graph node."""
    if decision.num_experts != bank.num_experts:
        raise ConfigurationError(
            f"decision has {decision.num_experts} experts, bank has {bank.num_experts}"
        )
    return expert_forward(x, (bank.w1, bank.w2), decision)


def moe_share_forward(
    x: Tensor, bank: ExpertBank, shared: SharedMlp, decision: GateDecision
) -> Tensor:
    """MoE output plus the shared always-on MLP."""
    return moe_forward(x, bank, decision) + expert_forward(x, (shared.w1, shared.w2))


def load_balance_loss(decision: GateDecision) -> Tensor:
    """Auxiliary loss N * sum_i f_i * P_i.

    f_i is the fraction of tokens routed to expert i (a constant w.r.t. the
    graph), P_i the mean router probability of expert i (differentiable).
    Minimized, at value 1 for top-1 routing, by exactly uniform routing.
    """
    n_tokens = decision.num_tokens
    n_experts = decision.num_experts
    fractions = Tensor(decision.binary_mask.sum(axis=0, keepdims=True) / n_tokens)
    mean_probs = T.tsum(decision.router_probs, axis=0) * (1.0 / n_tokens)
    return T.tsum(fractions * mean_probs) * float(n_experts)
