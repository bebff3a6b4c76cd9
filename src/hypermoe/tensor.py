"""Dense float64 tensors with reverse-mode automatic differentiation.

The autodiff graph is kept apart from the tensor data. A differentiable
operation gives its output a ``Node``: the output's gradient, a rule and the
nodes of its parents, and no array. A leaf that requires a gradient is its own
node; an input that needs no gradient is a ``None`` parent. A rule is called as
``rule(g, *parents)`` and captures only the arrays it reads (say, the other
operand of a ``mul``), never a ``Tensor``, so an op output's ``data`` is held by
its caller and by the rules that read it, and is freed in the forward as soon
as the caller drops it. No node refers to its child, so a graph is no reference
cycle and is freed by refcount. ``backward`` runs the rules of the nodes
reachable from the loss in reverse topological order, and a graph is
single-use: each node drops its gradient, its rule and its parents as soon as
its rule has run, so only leaves keep a gradient, and a second ``backward``
through the graph raises ``ContractError``. A gradient enters a node only
through ``accumulate_grad`` and is never written into, so a rule may hand on
its ``g``, views of it, or one array to several parents.
Under ``no_grad()`` ops link nothing. An open ``Tape`` only observes: it lists
the nodes linked inside it, and ``backward`` never reads it. Only the
broadcasting the rest of the package needs is supported: one ``index`` op
serves every gather and slice, and ``matmul`` runs a 2-D right operand (a
weight) as one GEMM over the flattened rows and batches only 3-D @ 3-D.

Importing this module sets three glibc allocator thresholds for the whole
process; see ``MMAP_THRESHOLD_BYTES``.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
import zlib
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, TargetError

Array = np.ndarray

# glibc malloc thresholds, set once at import for the whole process. A step
# frees its activations as backward walks the graph and allocates them again
# in the next step; with glibc's defaults the freed heap would go back to the
# kernel and be page-faulted in again every step. Setting either of the last
# two turns off glibc's dynamic mmap threshold, so the first is set with them.
M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_TOP_PAD = -3, -1, -2  # mallopt parameter codes
MMAP_THRESHOLD_BYTES = 32 << 20  # arrays below this come from the heap, not from a fresh mmap
TRIM_THRESHOLD_BYTES = 256 << 20  # free memory the heap keeps at its top
TOP_PAD_BYTES = 16 << 20  # extra space the heap grows by on each request
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:  # not glibc: the allocator is left as it is
    _mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    _mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    _mallopt(M_TOP_PAD, TOP_PAD_BYTES)


class Tape:
    """Observer listing the graph nodes linked while it is the innermost open Tape.

    Execution order is a topological order by construction: an op's parents
    are always recorded before the op itself. The records hold nodes, not op
    outputs, so a Tape keeps no output's data alive; a node keeps its rule's
    arrays only until ``backward`` consumes it.
    """

    def __init__(self) -> None:
        self.records: list["Node"] = []

    def __enter__(self) -> "Tape":
        _TLS.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TLS.stack.pop()


class _TapeStack(threading.local):
    def __init__(self) -> None:
        self.stack = [Tape()]
        self.grad_enabled = True


_TLS = _TapeStack()


@contextlib.contextmanager
def no_grad():
    """Run the ops inside without linking a graph; nests, and restores the flag on any exit."""
    enabled = _TLS.grad_enabled
    _TLS.grad_enabled = False
    try:
        yield
    finally:
        _TLS.grad_enabled = enabled


class Tensor:
    """Row-major float64 n-d array with an optional accumulated gradient.

    An op output's graph side is its ``node``, None when the op linked no graph. A leaf that
    requires a gradient is its own node: it keeps ``grad`` and ``grad_rows``, and has no rule
    and no parents."""

    __slots__ = ("data", "grad", "grad_rows", "requires_grad", "node")
    rule = None
    parents = ()

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.grad_rows: Array | None = None
        self.requires_grad = requires_grad
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: Array, rows: Array | None = None) -> None:
        """Add ``g`` into ``grad``; a gradient handed over is never written into. The
        first one is kept as it is, and each later one is added out of place.

        ``rows``, when given, lists the only rows along axis 0 where ``g`` may be
        nonzero; ``grad_rows`` keeps the union of them, or None once a gradient
        covered every row. Adam updates only those rows."""
        if self.grad is None:
            self.grad, self.grad_rows = g, rows
            return
        if rows is None or self.grad_rows is None:
            self.grad_rows = None
        else:
            self.grad_rows = np.union1d(self.grad_rows, rows)
        self.grad = self.grad + g

    def backward(self) -> None:
        backward(self)

    # operator sugar
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """The graph side of an op output: its gradient, its rule ``rule(g, *parents)`` and its
    ``parents`` (a node, a leaf, or None for an input that needs no gradient), and no array."""

    __slots__ = ("grad", "rule", "parents")

    def accumulate_grad(self, g: Array, rows: Array | None = None) -> None:
        """Add ``g`` into ``grad`` out of place, as ``Tensor.accumulate_grad`` does; only a
        leaf's optimizer reads ``rows``."""
        self.grad = g if self.grad is None else self.grad + g


Parent = Node | Tensor | None  # what a rule receives for each input


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs: Sequence[Tensor], rule: Callable[..., None]) -> Tensor:
    """Outside ``no_grad``, when an input needs a gradient, give ``out`` a node with ``rule``
    over the inputs' nodes; the innermost open Tape lists it."""
    if not _TLS.grad_enabled:
        return out
    parents = []
    for t in inputs:
        parents.append(t.node or (t if t.requires_grad else None))
    if any(parents):
        node = Node()
        node.grad, node.rule, node.parents = None, rule, parents
        out.requires_grad, out.node = True, node
        if len(_TLS.stack) > 1:  # the bottom entry stands for "no Tape open" and stays empty
            _TLS.stack[-1].records.append(node)
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _consumed(*_) -> None:
    """The rule a node keeps once its own has run in a ``backward``: a graph is single-use."""
    raise ContractError("backward through a graph that was already consumed; build a new graph")


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar loss, consuming the graph.

    An iterative depth-first post-order walk (no recursion limit) sorts the
    nodes reachable through ``parents``; leaves have no parents and are never
    pushed. Each node's rule runs once, in reverse order, and the node then
    drops its gradient, rule and parents, which frees what the rule captured.
    A graph that reaches a consumed node raises ``ContractError`` before any
    gradient changes. Leaf gradients accumulate across graphs until cleared.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar, got shape {loss.shape}")
    root = loss.node or loss
    if root.rule is _consumed:
        _consumed()

    order: list[Node | Tensor] = []
    visited = {id(root)}
    stack = [(root, iter(root.parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p is None:
                continue
            if p.parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p.parents)))
                    break
            elif p.rule is _consumed:
                _consumed()
        else:
            stack.pop()
            order.append(node)

    root.accumulate_grad(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node.rule is not None:
            node.rule(node.grad, *node.parents)
            node.grad, node.rule, node.parents = None, _consumed, ()


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    a_shape, b_shape = a.data.shape, b.data.shape

    def back(g: Array, a: Parent, b: Parent) -> None:
        if a is not None:
            a.accumulate_grad(_unbroadcast(g, a_shape))
        if b is not None:
            b.accumulate_grad(_unbroadcast(g, b_shape))

    return _record(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    a_shape, b_shape = a.data.shape, b.data.shape
    # each side's gradient reads the other side's data, kept only when that gradient is taken
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def back(g: Array, a: Parent, b: Parent) -> None:
        if a is not None:
            a.accumulate_grad(_unbroadcast(g * bd, a_shape))
        if b is not None:
            b.accumulate_grad(_unbroadcast(g * ad, b_shape))

    return _record(out, (a, b), back)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def back(g: Array, x: Parent) -> None:
        # subgradient at 0 is 0; the output is positive exactly where the input is
        x.accumulate_grad(g * (y > 0.0))

    return _record(Tensor(y), (x,), back)


def softplus(x: Tensor) -> Tensor:
    d = x.data
    out = Tensor(np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d))))

    def back(g: Array, x: Parent) -> None:
        sig = np.empty_like(d)
        pos = d >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ez = np.exp(d[~pos])
        sig[~pos] = ez / (1.0 + ez)
        x.accumulate_grad(g * sig)

    return _record(out, (x,), back)


# ---------------------------------------------------------------------------
# matmul and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b. A 2-D ``b`` (a weight) takes single GEMMs over the rows of ``a`` flattened to
    (-1, k), so its gradient is one (k, rows) @ (rows, n) product; a 3-D ``b`` (attention)
    multiplies batch by batch, and broadcast axes sum in its gradient."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    a_shape, b_shape = ad.shape, bd.shape
    if bd.ndim == 2:
        a2 = ad.reshape(-1, a_shape[-1])
        out = Tensor((a2 @ bd).reshape(a_shape[:-1] + (b_shape[1],)))

        def back(g: Array, a: Parent, b: Parent) -> None:
            g2 = g.reshape(-1, b_shape[1])
            if a is not None:
                a.accumulate_grad((g2 @ bd.T).reshape(a_shape))
            if b is not None:
                b.accumulate_grad(a2.T @ g2)

        return _record(out, (a, b), back)
    out = Tensor(np.matmul(ad, bd))

    def back(g: Array, a: Parent, b: Parent) -> None:
        if a is not None:
            ga = np.matmul(g, np.swapaxes(bd, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a_shape))
        if b is not None:
            gb = np.matmul(np.swapaxes(ad, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b_shape))

    return _record(out, (a, b), back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    x_shape = x.data.shape

    def back(g: Array, x: Parent) -> None:
        x.accumulate_grad(g.reshape(x_shape))

    return _record(out, (x,), back)


def transpose_last2(x: Tensor) -> Tensor:
    out = Tensor(np.swapaxes(x.data, -1, -2))

    def back(g: Array, x: Parent) -> None:
        x.accumulate_grad(np.swapaxes(g, -1, -2))

    return _record(out, (x,), back)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    widths = [p.shape[axis] for p in parts]

    def back(g: Array, *parents: Parent) -> None:
        offset = 0
        for p, w in zip(parents, widths):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + w)
            if p is not None:
                p.accumulate_grad(g[tuple(sl)])
            offset += w

    return _record(out, parts, back)


# ---------------------------------------------------------------------------
# indexing and grouped FFNs


def _scatter_add(shape: tuple[int, ...], key, g: Array) -> Array:
    """A fresh zero array of ``shape`` with ``g`` added at ``key``; repeated indices add up."""
    out = np.zeros(shape)
    np.add.at(out, key, g)
    return out


def index(x: Tensor, key) -> Tensor:
    """``x.data[key]`` for any numpy key: an integer array (rows of a table), a tuple of integer
    arrays (one column per row) or basic slices. Repeated indices add up in the gradient. The
    output never shares memory with ``x``: only a result that is a view is copied."""
    data = x.data[key]
    out = Tensor(data.copy() if np.may_share_memory(data, x.data) else data)
    x_shape = x.data.shape

    def back(g: Array, x: Parent) -> None:
        x.accumulate_grad(_scatter_add(x_shape, key, g))

    return _record(out, (x,), back)


def _grouped_ffn(x: Array, ids: Array, k: int, w1: Array, w2: Array) -> tuple[Array, tuple]:
    """Row r's FFN relu(x[r // k] W1[u]) W2[u], u = ids[r], in row order, and the state its backward needs.

    ``w1`` and ``w2`` are (N, ...) stacks. The rows are sorted by id once, and
    each id present gathers its rows of ``x`` and runs them as two GEMMs, into
    its contiguous slice of one hidden and one output buffer. The state is the
    sort, the spans and the hidden buffer; it keeps no gathered copy of ``x``.
    """
    order = np.argsort(ids.astype(np.min_scalar_type(len(w1) - 1)), kind="stable")  # radix sort below 2**16 ids
    counts = np.bincount(ids, minlength=len(w1))
    ends = np.cumsum(counts)
    spans = [(u, ends[u] - counts[u], ends[u]) for u in np.flatnonzero(counts)]
    src = order // k
    hidden = np.empty((len(ids), w1.shape[2]))
    ys = np.empty((len(ids), w2.shape[2]))
    for u, s, e in spans:
        np.matmul(x[src[s:e]], w1[u], out=hidden[s:e])
        np.maximum(hidden[s:e], 0.0, out=hidden[s:e])
        np.matmul(hidden[s:e], w2[u], out=ys[s:e])
    y = np.empty_like(ys)
    y[order] = ys
    return y, (order, spans, hidden)


def _grouped_ffn_back(g: Array, scale: Array | None, x: Array, k: int, state: tuple, w1: Array, w2: Array
                      ) -> tuple[Array, Array, Array]:
    """The gradients of ``_grouped_ffn(x, ids, k, w1, w2)`` when row r's output gradient is
    ``g[r // k] * scale[r]`` (``g[r // k]`` when ``scale`` is None): the gradient of x, and the
    (N, ...) gradient stacks of W1 and W2, whose row u is zero when no row ran through id u.

    The sorted output gradient is gathered from ``g`` directly, each id gathers its rows of ``x``
    again, and its rows of the input gradient are written straight into place: no row-order
    output gradient, gathered ``x`` or sorted input gradient is built whole.
    """
    order, spans, hidden = state
    src = order // k
    gs = g[src]
    if scale is not None:
        gs *= scale[order][:, None]
    dx = np.empty((len(order), x.shape[1]))
    dw1, dw2 = np.empty_like(w1), np.empty_like(w2)
    idle = np.ones(len(w1), dtype=bool)
    idle[[u for u, _, _ in spans]] = False
    dw1[idle], dw2[idle] = 0.0, 0.0
    for u, s, e in spans:
        d_pre = gs[s:e] @ w2[u].T
        d_pre *= hidden[s:e] > 0.0
        np.matmul(x[src[s:e]].T, d_pre, out=dw1[u])
        np.matmul(hidden[s:e].T, gs[s:e], out=dw2[u])
        dx[order[s:e]] = d_pre @ w1[u].T
    return dx.reshape(-1, k, dx.shape[1]).sum(axis=1), dw1, dw2


def routed_experts(x: Tensor, w1: Tensor, w2: Tensor, selected: Array, gates: Tensor) -> Tensor:
    """out[t] = sum_k gates[t, k] relu(x[t] W1[e]) W2[e] with e = selected[t, k], over the expert
    stacks W1 (N, h, d_ff) and W2 (N, d_ff, h); the T*K slots run grouped by expert. An expert no
    slot selects is not run, and the stacks' ``grad_rows`` leave its row out.

    The rule keeps ``x``'s data (which the gate's matmul holds anyway), the gate values' data, the
    per-slot outputs ``y`` (for the gates' gradient) and the grouped state with its hidden rows."""
    n, k = selected.shape
    xd, gd, w1d, w2d = x.data, gates.data, w1.data, w2.data
    y, state = _grouped_ffn(xd, selected.reshape(-1), k, w1d, w2d)
    y = y.reshape(n, k, -1)
    if k == 1:  # exactly the 1x1 GEMV, without one BLAS call per token
        out = Tensor(gd * y[:, 0])
    else:  # OpenBLAS's GEMV uses FMA, which no numpy multiply-add matches
        out = Tensor(np.matmul(gd[:, None, :], y)[:, 0])

    def back(g: Array, x: Parent, gates: Parent, w1: Parent, w2: Parent) -> None:
        if gates is not None:
            gates.accumulate_grad(np.einsum("th,tkh->tk", g, y))
        dx, dw1, dw2 = _grouped_ffn_back(g, gd.reshape(-1), xd, k, state, w1d, w2d)
        if x is not None:
            x.accumulate_grad(dx)
        used = np.array([u for u, _, _ in state[1]])
        for w, d in ((w1, dw1), (w2, dw2)):
            if w is not None:
                w.accumulate_grad(d, used)

    return _record(out, (x, gates, w1, w2), back)


def generated_expert(x: Tensor, codes: Tensor, groups: Array, w_down: Tensor, w_up: Tensor) -> Tensor:
    """Each token's generated bottleneck expert: out[t] = relu(x[t] D_u) U_u with u = groups[t].

    ``codes`` is (U, t_k), one code k_u per group; D_u = reshape(W_down k_u, (h, b))
    and U_u = reshape(W_up k_u, (b, h)), with b = rows(W_down) / h, are built once per
    group, and the tokens run grouped. The rule keeps the data of ``x``, the codes,
    ``W_down`` and ``W_up`` and the grouped state, and rebuilds the D and U stacks with
    the forward's two GEMMs, so no (U, h, b) stack lives between forward and backward.
    """
    n_groups, h = codes.shape[0], x.shape[-1]
    xd, cd, wdd, wud = x.data, codes.data, w_down.data, w_up.data
    b = wdd.shape[0] // h

    def stacks() -> tuple[Array, Array]:
        return (cd @ wdd.T).reshape(n_groups, h, b), (cd @ wud.T).reshape(n_groups, b, h)

    y, state = _grouped_ffn(xd, groups, 1, *stacks())
    out = Tensor(y)

    def back(g: Array, x: Parent, codes: Parent, w_down: Parent, w_up: Parent) -> None:
        dx, d_down, d_up = _grouped_ffn_back(g, None, xd, 1, state, *stacks())
        d_down, d_up = d_down.reshape(n_groups, h * b), d_up.reshape(n_groups, b * h)
        if x is not None:
            x.accumulate_grad(dx)
        if codes is not None:
            codes.accumulate_grad(d_down @ wdd + d_up @ wud)
        if w_down is not None:
            w_down.accumulate_grad(d_down.T @ cd)
        if w_up is not None:
            w_up.accumulate_grad(d_up.T @ cd)

    return _record(out, (x, codes, w_down, w_up), back)


# ---------------------------------------------------------------------------
# softmax, reductions, losses


def _column_sum(t: Array) -> Array:
    """The sum over axis 0 of a (c, rows) array, in passes over whole rows of ``t``: bit for bit
    what ``np.add.reduce`` gives along the last axis of its transpose. It follows numpy's pairwise
    order, which adds each row's sum to 0.0: one running sum below 8 values, eight running sums
    per block of 8 up to 128 values, and halves split at a multiple of 8 above that."""
    c = len(t)
    if c < 8:
        total = np.zeros(t.shape[1:])  # numpy gives +0.0 for a row of -0.0 too
        for row in t:
            total += row
        return total
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _column_sum(t[:half]) + _column_sum(t[half:])
    acc = t[:8].copy()
    blocks = c - c % 8
    for i in range(8, blocks, 8):
        acc += t[i:i + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in t[blocks:]:
        total += row
    total += 0.0  # turns a -0.0 total into 0.0, as numpy's does
    return total


def softmax(x: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis.

    The last axis is short (experts, keys), and numpy reduces along it with one inner-loop call
    per row, so forward and backward run on a C-contiguous (c, rows) transposed copy, as passes
    over all rows at once. The max is exact in any order and ``_column_sum`` adds in numpy's
    order, so the values are bit for bit those of the row form. Output and gradient are
    C-contiguous, which keeps a batched matmul that reads them on the same BLAS path.
    """
    shape, c = x.shape, x.shape[-1]
    if c == 0:
        raise DimensionError("softmax: empty last axis")
    t = x.data.reshape(-1, c).T.copy()
    t -= t.max(axis=0)
    np.exp(t, out=t)
    t /= _column_sum(t)
    out = Tensor(t.T.copy().reshape(shape))

    def back(g: Array, x: Parent) -> None:
        gt = g.reshape(-1, c).T.copy()
        gt -= _column_sum(gt * t)
        gt *= t
        x.accumulate_grad(gt.T.copy().reshape(shape))

    return _record(out, (x,), back)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=axis is not None))
    x_shape = x.data.shape

    def back(g: Array, x: Parent) -> None:
        x.accumulate_grad(np.broadcast_to(g, x_shape))

    return _record(out, (x,), back)


def mse(pred: Tensor, target: Array) -> Tensor:
    """Mean squared error between predictions and a constant target array of the same shape."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"mse: incompatible shapes {pred.shape} and {target.shape}")
    diff = pred.data - target
    size = diff.size
    out = Tensor(np.mean(diff * diff))

    def back(g: Array, pred: Parent) -> None:
        pred.accumulate_grad(g * 2.0 * diff / size)

    return _record(out, (pred,), back)


def softmax_cross_entropy(logits: Tensor, targets: Array) -> Tensor:
    """Mean cross-entropy between row softmaxes and integer class targets."""
    targets = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if targets.shape != (n,):
        raise DimensionError(f"cross_entropy: targets shape {targets.shape} for logits {logits.shape}")
    if targets.min() < 0 or targets.max() >= c:
        raise TargetError(f"cross_entropy: target out of range [0, {c})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    out = Tensor(np.mean(logz - shifted[np.arange(n), targets]))

    def back(g: Array, logits: Parent) -> None:
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        logits.accumulate_grad(g * p / n)

    return _record(out, (logits,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias. A row holds h values
    (32 and more in the benchmark's configs), where numpy's row reduction beats a transposed pass
    (see ``softmax``); each mean is that sum divided by h, as ``.mean`` does, without its wrapper."""
    h = x.shape[-1]
    gd, gain_shape, bias_shape = gain.data, gain.data.shape, bias.data.shape
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / h
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / h + eps)
    xhat *= inv
    out = Tensor(xhat * gd + bias.data)

    def back(g: Array, x: Parent, gain: Parent, bias: Parent) -> None:
        if gain is not None:
            gain.accumulate_grad(_unbroadcast(g * xhat, gain_shape))
        if bias is not None:
            bias.accumulate_grad(_unbroadcast(g, bias_shape))
        if x is not None:
            dxhat = g * gd
            m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / h
            dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / h
            dxhat -= xhat * m2
            dxhat *= inv
            x.accumulate_grad(dxhat)

    return _record(out, (x, gain, bias), back)


# ---------------------------------------------------------------------------
# randomness


class Rng:
    """Deterministic random stream: same seed + same call sequence, same values."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def gaussian(self, *shape: int, std: float = 1.0) -> Array:
        return self._gen.standard_normal(shape) * std

    def uniform(self, *shape: int, low: float = 0.0, high: float = 1.0) -> Array:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, *shape: int) -> Array:
        return self._gen.integers(low, high, shape)

    def spawn(self, key: str | int) -> "Rng":
        """Child stream whose seed depends only on (self.seed, key)."""
        k = zlib.crc32(key.encode()) if isinstance(key, str) else int(key)
        mixed = np.random.SeedSequence([self.seed, k]).generate_state(1, np.uint64)[0]
        return Rng(int(mixed))
