"""HyperExpert: bottleneck experts generated by a shared hypernetwork, one per routing mask.

A token's generated expert depends only on its routing mask: invert the mask
to find the unselected experts, average their embeddings through a small MLP
into a selection embedding, fuse it with the layer embedding into a code k,
and feed k to the generator, one (W_down, W_up) tuple shared by every layer,
for a (down, up) bottleneck expert that runs in parallel with the routed
experts, whose bank is a (W1, W2) tuple of stacks (see ``moe``). Every
parameter is a plain tensor or tuple: the (N, t') expert table, the (L, t')
layer table, the MLP (w1, b1, w2, b2), the projector (w, b) and the
generator. A model shares one (layer table, MLP, projector, generator)
tuple across its layers, and each layer passes its own expert table. A
layer has at most C(N, K) distinct masks, so the embeddings and codes are
computed once per distinct mask, and ``tensor.generated_expert`` builds each
mask's D and U once and runs the tokens grouped by mask in one graph node.
The per-token reference, which builds every token's D and U, lives in
``tests/test_hyper.py``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .moe import GateDecision, moe_forward
from .tensor import Tensor


def selection_embedding(mask_hat: Tensor, experts: Tensor, mlp: tuple) -> Tensor:
    """Mean of the masked rows of the (N, t') expert table per token, pushed through the
    MLP ``(w1 (t', t), b1, w2 (t, t), b2)``: relu(a w1 + b1) w2 + b2."""
    w1, b1, w2, b2 = mlp
    counts = mask_hat.data.sum(axis=1, keepdims=True)
    aggregate = Tensor(mask_hat.data / counts) @ experts
    return T.relu(aggregate @ w1 + b1) @ w2 + b2


def combine_embeddings(p: Tensor, layer_index: int, layers: Tensor, proj: tuple) -> Tensor:
    """Concat the selection embedding with row ``layer_index`` of the (L, t') layer table and
    project through ``(w (t + t', t_k), b)``."""
    w, b = proj
    l_rows = T.index(layers, np.full(p.shape[0], layer_index))
    return T.concat([p, l_rows], axis=-1) @ w + b


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
    x: Tensor, bank: tuple, decision: GateDecision, experts: Tensor, shared: tuple, layer_index: int, condition_on: str
) -> Tensor:
    """Routed MoE output plus each token's generated HyperExpert, unscaled. ``experts`` is the
    layer's (N, t') expert table; ``shared`` is the model's (layer table, selection MLP,
    projector, generator)."""
    layers, mlp, proj, generator = shared
    base = moe_forward(x, bank, decision)
    groups, first = _group_by_mask(decision.selected)
    mask = conditioning_mask(decision, condition_on)
    p = selection_embedding(Tensor(mask.data[first]), experts, mlp)
    codes = combine_embeddings(p, layer_index, layers, proj)
    return base + T.generated_expert(x, codes, groups, *generator)
