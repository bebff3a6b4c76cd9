"""Switch-style sparse mixture-of-experts layer.

Noisy top-k gating over N expert FFNs, sparse combination of the selected
experts' outputs, the load-balancing auxiliary loss, and the MoE-Share
baseline (routed experts plus one always-on shared MLP).

A layer's gate is a plain (W_g, W_noise) tuple, and an expert, the shared
MLP and a layer's expert bank are each a plain (W1, W2) tuple. The gate adds
noise exactly when it is handed an rng; ``Model.forward`` decides whether it
is. ``GateDecision``, a gate call's routing result, is the one class. A bank
stacks its N experts: W1 of shape (N, h, d_ff) and W2 of shape (N, d_ff, h),
whose row e is expert e. Dispatch is slot-ordered:
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
from .tensor import Rng, Tensor


@dataclass
class GateDecision:
    """Per-token routing outcome of the noisy top-k gate."""

    router_probs: Tensor        # (T, N), rows sum to 1
    selected: np.ndarray        # (T, K) int expert indices, by descending prob
    gate_values: Tensor         # (T, K) retained softmax values at `selected`
    binary_mask: np.ndarray     # (T, N) 0/1, exactly K ones per row


def noisy_topk_gate(x: Tensor, gate: tuple, top_k: int, rng: Rng | None = None) -> GateDecision:
    """Route each token: softmax over the gate logits x W_g, noised by rng's Gaussians times
    softplus(x W_noise) when given an rng, and keep the top ``top_k``.

    ``gate`` is the (W_g, W_noise) pair, each (h, N). Ties are broken toward the lower expert index.
    """
    w_gate, w_noise = gate
    logits = x @ w_gate
    if rng is not None:
        noise = Tensor(rng.gaussian(*logits.shape))
        logits = logits + noise * T.softplus(x @ w_noise)
    probs = T.softmax(logits)

    # K rounds of argmax, each masking its winner to -inf: argmax keeps the lower index among
    # ties, so this is the stable argsort of -p, without a sort per row. No probability is -inf,
    # so the masked entries are exactly the selected ones.
    p = probs.data.copy()
    rows = np.arange(len(p))
    selected = np.empty((len(p), top_k), dtype=np.intp)
    for j in range(top_k):
        selected[:, j] = p.argmax(axis=1)
        p[rows, selected[:, j]] = -np.inf
    mask = (p == -np.inf).astype(np.float64)

    gate_values = T.index(probs, (rows[:, None], selected))
    return GateDecision(probs, selected, gate_values, mask)


def expert_forward(x: Tensor, expert: tuple, decision: GateDecision | None = None) -> Tensor:
    """Expert FFN relu(x W1) W2: one (W1, W2) pair run on every row, or, given ``decision``,
    a bank's (W1, W2) stacks, each row run through its K selected experts and summed by gate value."""
    w1, w2 = expert
    if decision is None:
        return T.relu(x @ w1) @ w2
    return T.routed_experts(x, w1, w2, decision.selected, decision.gate_values)


def moe_forward(x: Tensor, bank: tuple, decision: GateDecision) -> Tensor:
    """y_i = sum_k gate_ik * E_sel(x_i) over the K experts token i selects from the (W1, W2)
    stacks ``bank``, in one graph node."""
    return expert_forward(x, bank, decision)


def moe_share_forward(x: Tensor, bank: tuple, shared: tuple, decision: GateDecision) -> Tensor:
    """MoE output plus the shared always-on (W1, W2) MLP."""
    return moe_forward(x, bank, decision) + expert_forward(x, shared)


def load_balance_loss(decision: GateDecision) -> Tensor:
    """Auxiliary loss N * sum_i f_i * P_i.

    f_i is the fraction of tokens routed to expert i (a constant w.r.t. the
    graph), P_i the mean router probability of expert i (differentiable).
    Minimized, at value 1 for top-1 routing, by exactly uniform routing.
    """
    n_tokens, n_experts = decision.router_probs.shape
    fractions = Tensor(decision.binary_mask.sum(axis=0, keepdims=True) / n_tokens)
    mean_probs = T.tsum(decision.router_probs, axis=0) * (1.0 / n_tokens)
    return T.tsum(fractions * mean_probs) * float(n_experts)
