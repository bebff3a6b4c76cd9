"""HyperExpert: bottleneck experts generated by a shared hypernetwork, one per routing mask.

A token's generated expert depends only on its routing mask: invert the mask
to find the unselected experts, average their embeddings through a small MLP
into a selection embedding, fuse it with the layer embedding into a code k,
and feed k to the generator, one (W_down, W_up) tuple shared by every layer,
for a (down, up) bottleneck expert that runs in parallel with the routed
experts, whose bank is a (W1, W2) tuple of stacks (see ``moe``). A layer has
at most C(N, K) distinct masks, so the embeddings and codes are computed once
per distinct mask, and ``tensor.generated_expert`` builds each mask's D and U
once and runs the tokens grouped by mask in one graph node. The per-token
reference, which builds every token's D and U, lives in ``tests/test_hyper.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .moe import GateDecision, moe_forward
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
class HyperComponents:
    """Everything the HyperExpert pipeline needs, bundled for one model."""

    tables: EmbeddingTables
    mlp: SelectionMlp
    projector: Projector
    generator: tuple[Tensor, Tensor]  # shared by every layer: W_down (h*b, t_k), W_up (b*h, t_k)
    condition_on: str = "unselected"


def selection_embedding(mask_hat: Tensor, tables: EmbeddingTables, mlp: SelectionMlp) -> Tensor:
    """Mean of the masked expert embeddings per token, pushed through the MLP."""
    counts = mask_hat.data.sum(axis=1, keepdims=True)
    weights = Tensor(mask_hat.data / counts)
    aggregate = weights @ tables.expert
    return mlp(aggregate)


def combine_embeddings(
    p: Tensor, layer_index: int, tables: EmbeddingTables, proj: Projector
) -> Tensor:
    """Concat the selection embedding with the layer embedding and project."""
    l_rows = T.index(tables.layer, np.full(p.shape[0], layer_index))
    return proj(T.concat([p, l_rows], axis=-1))


def _group_by_mask(selected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each token's group id, one group per distinct routing mask, and the first token of each group.

    The key is the token's sorted expert ids, compared exactly for any number of experts.
    """
    keys = np.sort(selected, axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    groups = np.empty(len(order), dtype=np.int64)
    groups[order] = np.cumsum(new) - 1
    return groups, order[new]


def conditioning_mask(decision: GateDecision, condition_on: str) -> Tensor:
    """1 for each expert the selection embedding averages: the unselected ones, or the selected ones."""
    if condition_on == "selected":
        return Tensor(decision.binary_mask.copy())
    return Tensor(1.0 - decision.binary_mask)


def hypermoe_forward(
    x: Tensor, bank: tuple, decision: GateDecision, hyper: HyperComponents, layer_index: int
) -> Tensor:
    """Routed MoE output plus each token's generated HyperExpert, unscaled."""
    base = moe_forward(x, bank, decision)
    groups, first = _group_by_mask(decision.selected)
    mask = conditioning_mask(decision, hyper.condition_on)
    p = selection_embedding(Tensor(mask.data[first]), hyper.tables, hyper.mlp)
    codes = combine_embeddings(p, layer_index, hyper.tables, hyper.projector)
    return base + T.generated_expert(x, codes, groups, *hyper.generator)

