"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation links its output to its inputs (``_parents``)
and a rule ``back(g)`` that captures the inputs, never the output, so a graph
is no reference cycle and is freed by refcount. ``backward`` runs the rules of
the nodes reachable from the loss in reverse topological order. A gradient
enters a tensor only through ``accumulate_grad`` and is never written into, so
a rule may hand on its ``g``, views of it, or one array to several inputs.
Under ``no_grad()`` ops link nothing. An open ``Tape`` only observes: it lists
the ops that link a graph inside it, and ``backward`` never reads it. Only the
broadcasting the rest of the package needs is supported.
"""

from __future__ import annotations

import contextlib
import threading
import zlib
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, TargetError

Array = np.ndarray


class Tape:
    """Observer listing the differentiable ops run while it is the innermost open Tape.

    Execution order is a topological order by construction: an op's inputs
    are always recorded before the op itself.
    """

    def __init__(self) -> None:
        self.records: list["Tensor"] = []

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
    """Row-major float64 n-d array with an optional accumulated gradient."""

    __slots__ = ("data", "grad", "grad_rows", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.grad_rows: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple["Tensor", ...] = ()
        self._backward: Callable[[Array], None] | None = None

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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, parents: Sequence[Tensor], backward_fn: Callable[[Array], None]) -> Tensor:
    """Outside ``no_grad``, link ``out`` to its parents with a backward rule; the innermost open Tape lists it."""
    if _TLS.grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
        if len(_TLS.stack) > 1:  # the bottom entry stands for "no Tape open" and stays empty
            _TLS.stack[-1].records.append(out)
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor reachable from a scalar loss.

    An iterative depth-first post-order walk (no recursion limit) sorts the
    op nodes reachable through ``_parents``; leaves have no rule and are never
    pushed. Gradients accumulate across calls until explicitly cleared.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar, got shape {loss.shape}")

    order: list[Tensor] = []
    visited = {id(loss)}
    stack = [(loss, iter(loss._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p._parents and id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            order.append(node)

    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def back(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _record(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def back(g: Array) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), back)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def back(g: Array) -> None:
        # subgradient at 0 is 0
        x.accumulate_grad(g * (x.data > 0.0))

    return _record(out, (x,), back)


def softplus(x: Tensor) -> Tensor:
    d = x.data
    out = Tensor(np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d))))

    def back(g: Array) -> None:
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
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        return _matmul_flat(a, b)
    out = Tensor(np.matmul(a.data, b.data))

    def back(g: Array) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return _record(out, (a, b), back)


def _matmul_flat(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, n) as single GEMMs over the rows of ``a`` flattened to (-1, k).

    The weight gradient is then one (k, rows) @ (rows, n) product, not a
    stack of per-batch products that ``_unbroadcast`` would sum.
    """
    a2 = a.data.reshape(-1, a.shape[-1])
    out = Tensor((a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],)))

    def back(g: Array) -> None:
        g2 = g.reshape(-1, b.shape[1])
        if a.requires_grad:
            a.accumulate_grad((g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            b.accumulate_grad(a2.T @ g2)

    return _record(out, (a, b), back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def back(g: Array) -> None:
        x.accumulate_grad(g.reshape(x.shape))

    return _record(out, (x,), back)


def transpose_last2(x: Tensor) -> Tensor:
    out = Tensor(np.swapaxes(x.data, -1, -2))

    def back(g: Array) -> None:
        x.accumulate_grad(np.swapaxes(g, -1, -2))

    return _record(out, (x,), back)


def slice_view(x: Tensor, key: tuple) -> Tensor:
    """Differentiable (possibly strided) slice of x."""
    out = Tensor(x.data[key].copy())

    def back(g: Array) -> None:
        x.accumulate_grad(_scatter_add(x.shape, key, g))

    return _record(out, (x,), back)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    widths = [p.shape[axis] for p in parts]

    def back(g: Array) -> None:
        offset = 0
        for p, w in zip(parts, widths):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + w)
            if p.requires_grad:
                p.accumulate_grad(g[tuple(sl)])
            offset += w

    return _record(out, tuple(parts), back)


# ---------------------------------------------------------------------------
# gather / combine


def _scatter_add(shape: tuple[int, ...], key, g: Array) -> Array:
    """A fresh zero array of ``shape`` with ``g`` added at ``key``; repeated indices add up."""
    out = np.zeros(shape)
    np.add.at(out, key, g)
    return out


def gather_rows(table: Tensor, ids: Array) -> Tensor:
    """Index rows of a 2-d table with an integer array of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids])

    def back(g: Array) -> None:
        table.accumulate_grad(_scatter_add(table.shape, ids.reshape(-1), g.reshape(-1, table.shape[-1])))

    return _record(out, (table,), back)


def take_per_row(x: Tensor, idx: Array) -> Tensor:
    """Per-row column gather: out[i, k] = x[i, idx[i, k]]."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(x.shape[0])[:, None]
    out = Tensor(x.data[rows, idx])

    def back(g: Array) -> None:
        x.accumulate_grad(_scatter_add(x.shape, (rows, idx), g))

    return _record(out, (x,), back)


def _grouped_ffn(x: Array, ids: Array, k: int, w1: Array, w2: Array) -> tuple[Array, tuple]:
    """Row r's FFN relu(x[r // k] W1[u]) W2[u], u = ids[r], in row order, and the state its backward needs.

    ``w1`` and ``w2`` are (N, ...) stacks. The rows are sorted by id once, and
    each id present runs as two GEMMs on its contiguous slice, into one hidden
    and one output buffer.
    """
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=len(w1))
    ends = np.cumsum(counts)
    spans = [(u, ends[u] - counts[u], ends[u]) for u in np.flatnonzero(counts)]
    xs = x[order // k]
    hidden = np.empty((len(ids), w1.shape[2]))
    ys = np.empty((len(ids), w2.shape[2]))
    for u, s, e in spans:
        np.matmul(xs[s:e], w1[u], out=hidden[s:e])
        np.maximum(hidden[s:e], 0.0, out=hidden[s:e])
        np.matmul(hidden[s:e], w2[u], out=ys[s:e])
    y = np.empty_like(ys)
    y[order] = ys
    return y, (order, spans, xs, hidden)


def _grouped_ffn_back(gy: Array, k: int, state: tuple, w1: Array, w2: Array) -> tuple[Array, Array, Array]:
    """For the row-order output gradient ``gy`` of ``_grouped_ffn``: the gradient of x, and the
    (N, ...) gradient stacks of W1 and W2, whose row u is zero when no row ran through id u."""
    order, spans, xs, hidden = state
    gs = gy[order]
    dxs = np.empty_like(xs)
    dw1, dw2 = np.zeros_like(w1), np.zeros_like(w2)
    for u, s, e in spans:
        d_pre = gs[s:e] @ w2[u].T
        d_pre *= hidden[s:e] > 0.0
        np.matmul(xs[s:e].T, d_pre, out=dw1[u])
        np.matmul(hidden[s:e].T, gs[s:e], out=dw2[u])
        np.matmul(d_pre, w1[u].T, out=dxs[s:e])
    dx = np.empty_like(dxs)
    dx[order] = dxs
    return dx.reshape(-1, k, dx.shape[1]).sum(axis=1), dw1, dw2


def routed_experts(x: Tensor, w1: Tensor, w2: Tensor, selected: Array, gates: Tensor) -> Tensor:
    """out[t] = sum_k gates[t, k] relu(x[t] W1[e]) W2[e] with e = selected[t, k], over the expert
    stacks W1 (N, h, d_ff) and W2 (N, d_ff, h); the T*K slots run grouped by expert. An expert no
    slot selects is not run, and the stacks' ``grad_rows`` leave its row out."""
    n, k = selected.shape
    w1d, w2d = w1.data, w2.data
    y, state = _grouped_ffn(x.data, selected.reshape(-1), k, w1d, w2d)
    y = y.reshape(n, k, -1)
    out = Tensor(np.matmul(gates.data[:, None, :], y)[:, 0])

    def back(g: Array) -> None:
        if gates.requires_grad:
            gates.accumulate_grad(np.einsum("th,tkh->tk", g, y))
        gy = (gates.data[:, :, None] * g[:, None, :]).reshape(n * k, -1)
        dx, dw1, dw2 = _grouped_ffn_back(gy, k, state, w1d, w2d)
        if x.requires_grad:
            x.accumulate_grad(dx)
        used = np.array([u for u, _, _ in state[1]])
        for w, d in ((w1, dw1), (w2, dw2)):
            if w.requires_grad:
                w.accumulate_grad(d, used)

    return _record(out, (x, gates, w1, w2), back)


def generated_expert(
    x: Tensor, codes: Tensor, groups: Array, w_down: Tensor, w_up: Tensor, b: int
) -> Tensor:
    """Each token's generated bottleneck expert: out[t] = relu(x[t] D_u) U_u with u = groups[t].

    ``codes`` is (U, t_k), one code k_u per group; D_u = reshape(W_down k_u, (h, b))
    and U_u = reshape(W_up k_u, (b, h)) are built once per group, and the tokens run grouped.
    """
    n_groups, h = codes.shape[0], x.shape[-1]
    down = (codes.data @ w_down.data.T).reshape(n_groups, h, b)
    up = (codes.data @ w_up.data.T).reshape(n_groups, b, h)
    y, state = _grouped_ffn(x.data, groups, 1, down, up)
    out = Tensor(y)

    def back(g: Array) -> None:
        dx, d_down, d_up = _grouped_ffn_back(g, 1, state, down, up)
        d_down, d_up = d_down.reshape(n_groups, h * b), d_up.reshape(n_groups, b * h)
        if x.requires_grad:
            x.accumulate_grad(dx)
        if codes.requires_grad:
            codes.accumulate_grad(d_down @ w_down.data + d_up @ w_up.data)
        if w_down.requires_grad:
            w_down.accumulate_grad(d_down.T @ codes.data)
        if w_up.requires_grad:
            w_up.accumulate_grad(d_up.T @ codes.data)

    return _record(out, (x, codes, w_down, w_up), back)


# ---------------------------------------------------------------------------
# softmax, reductions, losses


def softmax(x: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis."""
    if x.shape[-1] == 0:
        raise DimensionError("softmax: empty last axis")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def back(g: Array) -> None:
        dot = (g * y).sum(axis=-1, keepdims=True)
        x.accumulate_grad(y * (g - dot))

    return _record(out, (x,), back)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=axis is not None))

    def back(g: Array) -> None:
        x.accumulate_grad(np.broadcast_to(g, x.shape))

    return _record(out, (x,), back)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise DimensionError(f"mse: incompatible shapes {pred.shape} and {target.shape}")
    diff = pred.data - target.data
    out = Tensor(np.mean(diff * diff))

    def back(g: Array) -> None:
        g = g * 2.0 * diff / pred.size
        if pred.requires_grad:
            pred.accumulate_grad(g)
        if target.requires_grad:
            target.accumulate_grad(-g)

    return _record(out, (pred, target), back)


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

    def back(g: Array) -> None:
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        logits.accumulate_grad(g * p / n)

    return _record(out, (logits,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def back(g: Array) -> None:
        if gain.requires_grad:
            gain.accumulate_grad(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (dxhat - m1 - xhat * m2))

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


# ---------------------------------------------------------------------------
# gradient oracle


def finite_diff_grad(f: Callable[[Tensor], float | Tensor], x: Tensor, step: float = 1e-5) -> Array:
    """Central-difference gradient estimate of a scalar-valued f at x."""
    if step <= 0:
        raise ValueError("step must be positive")

    def evaluate(arr: Array) -> float:
        r = f(Tensor(arr))
        return r.item() if isinstance(r, Tensor) else float(r)

    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        hi = evaluate(bumped.reshape(x.shape))
        bumped[i] -= 2.0 * step
        lo = evaluate(bumped.reshape(x.shape))
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(x.shape)
