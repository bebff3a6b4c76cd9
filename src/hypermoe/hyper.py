"""HyperExpert: per-token bottleneck experts generated by a shared hypernetwork.

The pipeline per token: invert the routing mask to find the unselected
experts, average their embeddings through a small MLP into a selection
embedding, fuse with the layer embedding, and feed the result to the shared
generator to produce a (down, up) bottleneck expert that runs in parallel
with the routed experts.

The generated weights are linear in the code k, D_i = reshape(W_down k_i)
and U_i = reshape(W_up k_i), so the batched forward never builds them: with
W_down viewed as (h, b*t_k), each row of x W_down viewed as (b, t_k), and
W_up viewed as (b*t_k, h),

    relu(x_i D_i)  = relu(sum_j k_ij (x W_down)_i[:, j])
    relu(.) U_i    = (relu(.) outer k_i) W_up

which is two plain GEMMs and O(T*b*t_k) memory instead of O(T*h*b).
The per-token reference, which builds each token's D and U explicitly, lives
in ``tests/test_hyper.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DegenerateSelectionError
from .moe import ExpertBank, GateDecision, moe_forward
from .tensor import Tensor


@dataclass
class EmbeddingTables:
    expert: Tensor  # (N, t') one learned row per expert
    layer: Tensor   # (L, t') one learned row per transformer layer


@dataclass
class SelectionMlp:
    """Two affine layers with a ReLU between, t' -> t."""

    w1: Tensor  # (t', hidden)
    b1: Tensor  # (hidden,)
    w2: Tensor  # (hidden, t)
    b2: Tensor  # (t,)

    def __call__(self, x: Tensor) -> Tensor:
        return T.relu(x @ self.w1 + self.b1) @ self.w2 + self.b2


@dataclass
class Projector:
    """Single affine layer (t + t') -> t_k fusing selection and layer embeddings."""

    w: Tensor  # (t + t', t_k)
    b: Tensor  # (t_k,)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


@dataclass
class HyperNetParams:
    """Shared generator weights; one instance per model, used by every layer."""

    w_down: Tensor  # (h*b, t_k)
    w_up: Tensor    # (b*h, t_k)
    h: int
    b: int

    def __post_init__(self) -> None:
        if self.b >= self.h:
            raise ConfigurationError(f"bottleneck b={self.b} must be smaller than h={self.h}")
        if self.w_down.shape[0] != self.h * self.b or self.w_up.shape[0] != self.b * self.h:
            raise ConfigurationError(
                f"generator weight shapes {self.w_down.shape}/{self.w_up.shape} "
                f"inconsistent with h={self.h}, b={self.b}"
            )


@dataclass
class HyperComponents:
    """Everything the HyperExpert pipeline needs, bundled for one model."""

    tables: EmbeddingTables
    mlp: SelectionMlp
    projector: Projector
    hn: HyperNetParams
    condition_on: str = "unselected"


def selection_embedding(mask_hat: Tensor, tables: EmbeddingTables, mlp: SelectionMlp) -> Tensor:
    """Mean of the masked expert embeddings per token, pushed through the MLP."""
    counts = mask_hat.data.sum(axis=1, keepdims=True)
    if np.any(counts == 0):
        raise DegenerateSelectionError(
            "a token has no unselected expert to aggregate; configure top_k < n_experts"
        )
    weights = Tensor(mask_hat.data / counts)
    aggregate = weights @ tables.expert
    return mlp(aggregate)


def combine_embeddings(
    p: Tensor, layer_index: int, tables: EmbeddingTables, proj: Projector
) -> Tensor:
    """Concat the selection embedding with the layer embedding and project."""
    n_layers = tables.layer.shape[0]
    if not 0 <= layer_index < n_layers:
        raise IndexError(f"layer_index {layer_index} out of range [0, {n_layers})")
    l_rows = T.gather_rows(tables.layer, np.full(p.shape[0], layer_index))
    return proj(T.concat([p, l_rows], axis=-1))


def _batched_hyperexpert(x: Tensor, k_all: Tensor, hn: HyperNetParams) -> Tensor:
    """Apply every token's generated bottleneck expert without building it.

    Token i's expert is relu(x_i D_i) U_i with D_i = reshape(W_down k_i, (h, b))
    and U_i = reshape(W_up k_i, (b, h)). Contracting k last gives

        hidden_i = relu(sum_j k_ij (x W_down')_i[:, j])    W_down' = W_down as (h, b*t_k)
        out_i    = (hidden_i outer k_i) W_up'              W_up' = W_up as (b*t_k, h)

    so the whole batch costs two GEMMs and (T, b, t_k) intermediates.
    """
    n_tokens, t_k = x.shape[0], k_all.shape[-1]
    h, b = hn.h, hn.b
    code = T.reshape(k_all, (n_tokens, 1, t_k))
    projected = T.reshape(x @ T.reshape(hn.w_down, (h, b * t_k)), (n_tokens, b, t_k))
    hidden = T.relu(T.tsum(projected * code, axis=-1))  # (T, b, 1)
    outer = T.reshape(hidden * code, (n_tokens, b * t_k))
    w_up = T.reshape(T.transpose_last2(T.reshape(hn.w_up, (b, h, t_k))), (b * t_k, h))
    return outer @ w_up


def conditioning_mask(decision: GateDecision, condition_on: str) -> Tensor:
    """1 for each expert the selection embedding averages: the unselected ones, or the selected ones."""
    if condition_on == "unselected":
        return Tensor(1.0 - decision.binary_mask)
    if condition_on == "selected":
        return Tensor(decision.binary_mask.copy())
    raise ConfigurationError(f"condition_on must be 'selected' or 'unselected', got {condition_on!r}")


def hypermoe_forward(
    x: Tensor,
    bank: ExpertBank,
    decision: GateDecision,
    hyper: HyperComponents,
    layer_index: int,
) -> Tensor:
    """Routed MoE output plus the per-token generated HyperExpert, unscaled."""
    base = moe_forward(x, bank, decision)
    mask = conditioning_mask(decision, hyper.condition_on)
    p = selection_embedding(mask, hyper.tables, hyper.mlp)
    k_all = combine_embeddings(p, layer_index, hyper.tables, hyper.projector)
    return base + _batched_hyperexpert(x, k_all, hyper.hn)

