import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypermoe import tensor as T
from hypermoe.errors import ContractError, DimensionError, TargetError
from hypermoe.tensor import Rng, Tape, Tensor, finite_diff_grad


def tmean(x: Tensor) -> Tensor:
    """Mean over every element, built from library ops; the tests' scalar loss."""
    return T.tsum(x) * (1.0 / x.size)


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = Tensor(np.eye(2)) @ a
        assert np.array_equal(out.data, a.data)

    def test_hand_example(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop_oracle(self):
        rng = Rng(7)
        a, b = rng.gaussian(3, 4), rng.gaussian(4, 2)
        out = Tensor(a) @ Tensor(b)
        assert np.max(np.abs(out.data - triple_loop_matmul(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))
        # an operand below 2-D is refused when called, not in its backward
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(3,\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros(3))

    def test_backward_rule(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        T.tsum(a @ b).backward()
        g = np.ones((2, 4))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


class TestElementwise:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0, -1.0, 3.0], requires_grad=True)
        T.tsum(T.relu(x)).backward()
        assert x.grad.tolist() == [0.0, 0.0, 1.0]

    def test_softplus_at_zero(self):
        out = T.softplus(Tensor([0.0]))
        assert abs(out.data[0] - math.log(2.0)) < 1e-9

    def test_softplus_stable_at_large_inputs(self):
        out = T.softplus(Tensor([1000.0, -1000.0]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0] - 1000.0) < 1e-9

    def test_add(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert out.data.tolist() == [4.0, 6.0]

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_mul_broadcast_column(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        s = Tensor(np.array([[2.0], [3.0], [4.0]]), requires_grad=True)
        T.tsum(a * s).backward()
        assert np.allclose(s.grad, [[2.0], [2.0], [2.0]])


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_hand_computed(self):
        out = T.softmax(Tensor([[0.1, 0.7, 0.2]]))
        assert np.allclose(out.data, [[0.25463, 0.46396, 0.28141]], atol=1e-4)

    def test_no_overflow(self):
        out = T.softmax(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] > 0.999

    def test_rows_sum_to_one(self):
        rng = Rng(3)
        out = T.softmax(Tensor(rng.gaussian(50, 7) * 100))
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor(np.zeros((2, 0))))

    @given(c=st.integers(1, 70), rows=st.integers(1, 2000), lead=st.sampled_from([(), (1,), (2,)]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_the_row_formula(self, c, rows, lead, scale, seed):
        rng = Rng(seed)
        shape = lead + (rows, c)
        x, g = rng.gaussian(*shape) * scale, rng.gaussian(*shape)
        # oracle: the row form over the last axis, with numpy's own row reductions
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)
        dx = y * (g - (g * y).sum(axis=-1, keepdims=True))

        xt = Tensor(x, requires_grad=True)
        out = T.softmax(xt)
        T.tsum(out * Tensor(g)).backward()  # hands softmax exactly g
        assert out.data.tobytes() == y.tobytes() and xt.grad.tobytes() == dx.tobytes()
        # a strided output would send a batched matmul that reads it off its BLAS path
        assert out.data.flags.c_contiguous and xt.grad.flags.c_contiguous
        assert out.shape == xt.grad.shape == shape


VALUE_MIX = np.array([-0.0, 0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300])


class TestColumnSum:
    @given(c=st.integers(1, 300), rows=st.integers(1, 40), mixed=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    @example(c=7, rows=40, mixed=0.05, seed=0)  # the edges of the three regimes
    @example(c=8, rows=40, mixed=0.05, seed=0)
    @example(c=128, rows=40, mixed=0.05, seed=0)
    @example(c=129, rows=40, mixed=0.05, seed=0)
    @example(c=300, rows=40, mixed=0.0, seed=0)
    def test_bitwise_equal_to_numpy_row_reduce(self, c, rows, mixed, seed):
        """Pins ``_column_sum`` to numpy's pairwise order in all three regimes (below 8, up to
        128, above 128): a numpy whose order differs fails here, not in the training numerics."""
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((rows, c)) * 10.0 ** gen.integers(-3, 4, (rows, c))
        special = gen.random((rows, c)) < mixed
        a[special] = gen.choice(VALUE_MIX, special.sum())
        a[0] = -0.0  # a row of negative zeros sums to +0.0
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and 1e300 + 1e300
            want = np.add.reduce(a, axis=-1)
            got = T._column_sum(a.T.copy())
        assert got.tobytes() == want.tobytes()


class TestReductionsLosses:
    def test_mse_zero(self):
        assert T.mse(Tensor([1.0, 2.0]), np.array([1.0, 2.0])).item() == 0.0

    def test_mean(self):
        assert tmean(Tensor([2.0, 4.0])).item() == 3.0

    def test_cross_entropy_uniform(self):
        loss = T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(TargetError):
            T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([2]))

    @given(batch=st.lists(st.integers(1, 5), min_size=1, max_size=2), h=st.integers(1, 9),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**16))
    def test_layer_norm_bitwise_equal_to_the_np_var_formula(self, batch, h, scale, seed):
        rng = Rng(seed)
        x, g = rng.gaussian(*batch, h) * scale, rng.gaussian(*batch, h)
        gain, bias = rng.gaussian(h), rng.gaussian(h)
        # reference: np.var for the variance, then the out-of-place gradients
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu) * inv
        dxhat = g * gain
        m1, m2 = dxhat.mean(axis=-1, keepdims=True), (dxhat * xhat).mean(axis=-1, keepdims=True)
        want = {"out": xhat * gain + bias, "x": inv * (dxhat - m1 - xhat * m2),
                "gain": T._unbroadcast(g * xhat, gain.shape), "bias": T._unbroadcast(g, bias.shape)}

        leaves = {"x": Tensor(x, requires_grad=True), "gain": Tensor(gain, requires_grad=True),
                  "bias": Tensor(bias, requires_grad=True)}
        out = T.layer_norm(leaves["x"], leaves["gain"], leaves["bias"])
        got = {"out": out.data.copy()}
        T.tsum(out * Tensor(g)).backward()  # hands layer_norm exactly g
        got.update((name, t.grad) for name, t in leaves.items())
        for name, value in want.items():
            assert np.array_equal(got[name], value), name


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.tsum(x).backward()
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_hand_chain_rule(self):
        # loss = mse(w*x, y) at w=1, x=2, y=0 -> dL/dw = 2*(2)*2 = 8
        w = Tensor([1.0], requires_grad=True)
        loss = T.mse(w * Tensor([2.0]), np.array([0.0]))
        loss.backward()
        assert np.allclose(w.grad, [8.0])

    def test_first_gradient_is_not_aliased(self):
        # add hands the same out.grad array to both leaves as their first
        # gradient; the products recorded before it accumulate into each
        # leaf afterwards, which must not write through to the other
        rng = Rng(13)
        c, d, e = (Tensor(rng.gaussian(2, 3)) for _ in range(3))

        def loss(a, b):
            u, v = a * d, b * e
            return T.tsum((a + b) * c) + T.tsum(u * u) + T.tsum(v)

        a = Tensor(rng.gaussian(2, 3), requires_grad=True)
        b = Tensor(rng.gaussian(2, 3), requires_grad=True)
        loss(a, b).backward()
        fd_a = finite_diff_grad(lambda t: loss(t, Tensor(b.data)), Tensor(a.data))
        fd_b = finite_diff_grad(lambda t: loss(Tensor(a.data), t), Tensor(b.data))
        assert np.max(np.abs(a.grad - fd_a)) < 1e-6
        assert np.max(np.abs(b.grad - fd_b)) < 1e-6

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            T.backward(Tensor([1.0, 2.0]))

    def test_repeated_backward_accumulates(self):
        # two graphs over one leaf: its gradients add up across them
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(x).backward()
        T.tsum(x).backward()
        assert x.grad.tolist() == [2.0, 2.0]

    def test_repeated_backward_does_not_write_through_a_borrowed_view(self):
        # n's gradient is a sum of two, and x gets a view of it; the second
        # graph must add into x out of place, or the first gradient handed
        # over would change under its holder
        x = Tensor([1.0, 2.0], requires_grad=True)

        def loss():
            n = T.reshape(x, (2, 1))
            return T.tsum(n + n)

        loss().backward()
        first = x.grad
        assert first.tolist() == [2.0, 2.0]
        loss().backward()
        assert x.grad.tolist() == [4.0, 4.0]
        assert first.tolist() == [2.0, 2.0]

    def test_consumed_graph_raises_before_any_gradient_changes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        n = T.reshape(x, (2, 1))
        loss = T.tsum(n + n)
        assert n.node.parents == [x] and len(loss.node.parents) == 1
        loss.backward()
        # only the leaf keeps a gradient; every node dropped its gradient, rule and parents
        assert n.grad is None and loss.grad is None
        assert n.node.grad is None and loss.node.grad is None
        assert n.node.parents == () and loss.node.parents == ()
        before = x.grad.copy()
        for again in (loss, T.tsum(n), T.tsum(n * Tensor([[3.0], [4.0]]))):
            with pytest.raises(ContractError, match="already consumed"):
                again.backward()
            assert np.array_equal(x.grad, before)

    def test_composite_matches_finite_differences(self):
        rng = Rng(11)
        c = Tensor(rng.gaussian(2, 3))
        w = Tensor(rng.gaussian(3, 3), requires_grad=True)

        def f(wt):
            return tmean(T.softmax(T.relu(c @ wt)) * c)

        f(w).backward()
        fd = finite_diff_grad(f, w)
        assert np.max(np.abs(w.grad - fd)) / max(np.max(np.abs(fd)), 1e-8) < 1e-4


@pytest.fixture
def no_cyclic_gc():
    """The cyclic collector off, so an array dies only when its last reference goes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.usefixtures("no_cyclic_gc")
class TestGraphKeepsOnlyWhatRulesRead:
    """An op output's array is held by its caller and by the rules that read it, not by the graph."""

    @staticmethod
    def leaves():
        rng = Rng(5)
        return [Tensor(rng.gaussian(3, 4), requires_grad=True) for _ in range(3)]

    @pytest.mark.parametrize("consumer", ["relu", "add"])
    @pytest.mark.parametrize("drop", [True, False])
    def test_unread_sum_is_freed_while_the_graph_lives(self, consumer, drop):
        a, b, c = self.leaves()
        weights = Rng(6).gaussian(3, 4)
        s = a + b
        ref = weakref.ref(s.data)
        out = T.relu(s) if consumer == "relu" else s + c
        if drop:
            del s
            assert ref() is None  # neither relu's rule nor add's reads the sum
        else:
            assert ref() is not None
        loss = T.tsum(out * Tensor(weights))
        assert out.node.rule is not None and len(out.node.parents) == (1 if consumer == "relu" else 2)
        loss.backward()
        # bit for bit what the rules' arithmetic gives, whether or not the sum was dropped
        if consumer == "relu":
            want = weights * (np.maximum(a.data + b.data, 0.0) > 0.0)
            assert c.grad is None
        else:
            want = weights
            assert np.array_equal(c.grad, want)
        assert np.array_equal(a.grad, want) and np.array_equal(b.grad, want)

    def test_matmul_keeps_its_left_operand_until_backward(self):
        a, b, _ = self.leaves()
        w = Tensor(Rng(7).gaussian(4, 2), requires_grad=True)
        s = a + b
        left, held = weakref.ref(s.data), s.data.copy()
        out = s @ w
        product = weakref.ref(out.data)
        loss = T.tsum(out)
        del s, out
        assert product() is None  # tsum's rule reads no data
        assert left() is not None  # w's gradient reads the left operand
        loss.backward()
        assert left() is None
        ones = np.ones((3, 2))
        assert np.array_equal(w.grad, held.T @ ones)
        assert np.array_equal(a.grad, ones @ w.data.T) and np.array_equal(b.grad, a.grad)


# one graph family per op mix; 100 seeds total, vs the central-difference oracle
GRAPHS = {
    "mlp": lambda x, c: tmean(T.relu(x @ c) @ T.transpose_last2(c)),
    "softmax_mix": lambda x, c: tmean(T.softmax(x @ c) * (x @ c)),
    "softplus_sum": lambda x, c: T.tsum(T.softplus(x * Tensor(c.data[:, :1].T)) @ c),
    "norm_like": lambda x, c: tmean(T.layer_norm(x @ c, Tensor(np.ones(c.shape[1])), Tensor(np.zeros(c.shape[1])))),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", range(25))
def test_gradients_match_finite_differences(name, seed):
    rng = Rng(seed * 41 + 5)
    x = Tensor(rng.uniform(2, 3, low=-1.0, high=1.0), requires_grad=True)
    c = Tensor(rng.uniform(3, 4, low=-1.0, high=1.0))
    f = GRAPHS[name]
    f(x, c).backward()
    fd = finite_diff_grad(lambda t: f(t, c), Tensor(x.data))
    assert np.max(np.abs(x.grad - fd)) / max(np.max(np.abs(fd)), 1e-6) < 1e-4


def _matmul_grads_match_finite_differences(a: Tensor, b: Tensor, view=lambda t: t) -> None:
    """Gradients of sum((view(a) @ b)^2) for both leaves against central differences."""

    def f(at, bt):
        out = view(at) @ bt
        return T.tsum(out * out)

    f(a, b).backward()
    fd_a = finite_diff_grad(lambda t: f(t, Tensor(b.data)), Tensor(a.data))
    fd_b = finite_diff_grad(lambda t: f(Tensor(a.data), t), Tensor(b.data))
    for analytic, fd in ((a.grad, fd_a), (b.grad, fd_b)):
        assert analytic.shape == fd.shape
        assert np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1.0) < 1e-7


dims = st.integers(1, 4)


class TestMatmulProperties:
    @given(m=dims, k=dims, n=dims, seed=st.integers(0, 2**16))
    def test_2d_at_2d(self, m, k, n, seed):
        rng = Rng(seed)
        a = Tensor(rng.gaussian(m, k), requires_grad=True)
        b = Tensor(rng.gaussian(k, n), requires_grad=True)
        _matmul_grads_match_finite_differences(a, b)

    @given(batch=st.lists(dims, min_size=1, max_size=2), m=dims, k=dims, n=dims, seed=st.integers(0, 2**16))
    def test_nd_at_2d(self, batch, m, k, n, seed):
        rng = Rng(seed)
        a = Tensor(rng.gaussian(*batch, m, k), requires_grad=True)
        w = Tensor(rng.gaussian(k, n), requires_grad=True)
        assert np.allclose((a @ w).data, np.matmul(a.data, w.data), rtol=0, atol=1e-12)
        _matmul_grads_match_finite_differences(a, w)

    @given(batch=dims, m=dims, k=dims, n=dims, seed=st.integers(0, 2**16))
    def test_non_contiguous_3d_at_2d(self, batch, m, k, n, seed):
        # a transposed view reaches the flat path with non-contiguous data; the
        # leaf under the view gets the gradient
        rng = Rng(seed)
        leaf = Tensor(rng.gaussian(batch, k, m), requires_grad=True)
        w = Tensor(rng.gaussian(k, n), requires_grad=True)
        assert not T.transpose_last2(leaf).data.flags.c_contiguous or min(m, k) == 1
        _matmul_grads_match_finite_differences(leaf, w, view=T.transpose_last2)

    @given(batch=dims, m=dims, k=dims, n=dims, seed=st.integers(0, 2**16))
    def test_3d_at_3d(self, batch, m, k, n, seed):
        rng = Rng(seed)
        a = Tensor(rng.gaussian(batch, m, k), requires_grad=True)
        b = Tensor(rng.gaussian(batch, k, n), requires_grad=True)
        _matmul_grads_match_finite_differences(a, b)


class TestFiniteDiff:
    def test_sum_of_squares(self):
        fd = finite_diff_grad(lambda t: T.tsum(t * t), Tensor([1.0, 2.0]))
        assert np.allclose(fd, [2.0, 4.0], atol=1e-6)

    def test_softmax_index_zero(self):
        fd = finite_diff_grad(lambda t: float(T.softmax(t).data[0]), Tensor([0.0, 0.0]))
        assert np.allclose(fd, [0.25, -0.25], atol=1e-6)

    def test_constant_function(self):
        fd = finite_diff_grad(lambda t: 1.5, Tensor([1.0, 2.0, 3.0]))
        assert np.all(fd == 0.0)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: 0.0, Tensor([1.0]), step=0.0)


def _check_index_against_numpy(key, dense_first):
    # the forward is numpy's indexing, in memory of its own; the scatter equals
    # np.add.at bit for bit, repeated indices included, whether it gives x its
    # first gradient or adds to one a dense consumer gave
    rng = Rng(5)
    x = Tensor(rng.gaussian(6, 4), requires_grad=True)
    out = T.index(x, key)
    assert np.array_equal(out.data, x.data[key])
    assert not np.shares_memory(out.data, x.data)
    weights = rng.gaussian(*out.shape)
    gathered = T.tsum(out * Tensor(weights))
    dense = T.tsum(x * Tensor(np.full((6, 4), 0.5)))
    (dense + gathered if dense_first else gathered + dense).backward()
    scattered = np.zeros((6, 4))
    np.add.at(scattered, key, weights)
    assert np.array_equal(x.grad, scattered + 0.5)


class TestGatherScatter:
    def test_gather_rows_backward(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        T.tsum(T.index(table, np.array([0, 0, 2]))).backward()
        assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]

    @pytest.mark.parametrize(
        "ids",
        [np.array([0, 2, 3, 5]), np.array([4, 1, 1, 3, 4, 4]), np.array([[0, 1], [1, 0], [5, 5]])],
        ids=["strictly_increasing", "repeated", "2d_repeated"],
    )
    @pytest.mark.parametrize("dense_first", [True, False])
    def test_gather_rows_backward_matches_add_at(self, ids, dense_first):
        # an integer-array key gathers whole rows of a table
        _check_index_against_numpy(ids, dense_first)

    @pytest.mark.parametrize(
        "key",
        [
            (np.arange(6)[:, None], np.array([[2, 2], [0, 3], [1, 1], [3, 0], [0, 0], [2, 1]])),
            (slice(1, None, 2), slice(None, 3)),
        ],
        ids=["row_col_pairs", "basic_slices"],
    )
    @pytest.mark.parametrize("dense_first", [True, False])
    def test_index_matches_numpy_and_add_at(self, key, dense_first):
        # a tuple key: columns chosen per row, or basic slices (a view, copied)
        _check_index_against_numpy(key, dense_first)

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_accumulate_at_with_dense_consumer(self, dense_first):
        # the gather's backward runs before or after the dense consumer's, so
        # its scattered gradient is both the first one and a later one
        ids = np.array([0, 0, 2, 1, 0])
        weights = Rng(1).gaussian(5, 2)

        def f(table):
            dense = T.tsum(table * table)
            gathered = T.tsum(T.index(table, ids) * Tensor(weights))
            return dense + gathered if dense_first else gathered + dense

        table = Tensor(Rng(2).gaussian(3, 2), requires_grad=True)
        f(table).backward()
        assert np.allclose(table.grad, finite_diff_grad(f, table), atol=1e-8)

    def test_take_per_row(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.index(x, (np.arange(2)[:, None], np.array([[2], [0]])))
        assert out.data.tolist() == [[2.0], [3.0]]


class TestRng:
    def test_determinism_bitwise(self):
        a = Rng(123).gaussian(100)
        b = Rng(123).gaussian(100)
        assert np.array_equal(a, b)

    def test_spawn_streams_differ(self):
        r = Rng(5)
        assert not np.array_equal(r.spawn("a").gaussian(10), r.spawn("b").gaussian(10))

    def test_spawn_is_stable(self):
        assert np.array_equal(Rng(5).spawn("x").gaussian(4), Rng(5).spawn("x").gaussian(4))

    def test_gaussian_goodness_of_fit(self):
        # Kolmogorov-Smirnov against N(0,1) at n=1e5, alpha=0.01
        n = 100_000
        samples = np.sort(Rng(2024).gaussian(n))
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(samples / math.sqrt(2.0)))
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        d = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
        assert d < 1.63 / math.sqrt(n)


class TestTape:
    def test_records_in_topological_order(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = T.relu(x)
            z = T.tsum(y * y)
        positions = {id(node): i for i, node in enumerate(tape.records)}
        recorded_parents = 0
        for rec in tape.records:
            for parent in rec.parents:
                if id(parent) in positions:
                    recorded_parents += 1
                    assert positions[id(parent)] < positions[id(rec)]
        assert recorded_parents == 3  # y * y lists y's node twice, tsum lists the product's
        assert positions[id(y.node)] == 0
        assert positions[id(z.node)] == len(tape.records) - 1

    def test_nested_tape_isolated(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as outer:
            _ = x * x
            with Tape() as inner:
                _ = x + x
            assert len(inner.records) == 1
        assert len(outer.records) == 1

    @pytest.mark.parametrize("when", ["after_the_tape_closed", "inside_a_later_tape"])
    def test_backward_ignores_the_tape(self, when):
        # backward walks the loss's own graph, whichever Tape (if any) is open
        rng = Rng(17)
        c = Tensor(rng.gaussian(3, 4))

        def f(wt):
            return tmean(T.softmax(T.relu(c @ wt)) * c)

        w = Tensor(rng.gaussian(4, 4), requires_grad=True)
        with Tape():
            loss = f(w)
        if when == "after_the_tape_closed":
            loss.backward()
        else:
            with Tape():
                loss.backward()
        fd = finite_diff_grad(f, Tensor(w.data))
        assert w.grad is not None
        assert np.max(np.abs(w.grad - fd)) / max(np.max(np.abs(fd)), 1e-8) < 1e-6

    def test_ops_outside_a_tape_are_not_kept(self):
        from hypermoe.config import ModelConfig
        from hypermoe.model import build_model

        cfg = ModelConfig(
            layer_kind="hypermoe", h=16, d_ff=16, n_experts=3, n_layers=2, t=4, t_prime=4, t_k=4, b=2,
            moduli=[3, 4], train_size=64, eval_size=32, batch_size=16,
        )
        model = build_model(cfg)
        inputs, _ = model.task.eval_set(0, 16)
        for _ in range(5):
            model.forward(inputs)
        assert len(T._TLS.stack[0].records) == 0

    def test_deep_graph_beyond_the_recursion_limit(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(sys.getrecursionlimit() + 100):
            y = y + x
        T.tsum(y).backward()
        assert x.grad.tolist() == [sys.getrecursionlimit() + 101.0]


class TestNoGrad:
    def test_ops_link_nothing_and_no_tape_lists_them(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        w = Tensor([[0.5], [1.5]], requires_grad=True)

        def ops():
            return [T.relu(x), x @ w, T.softmax(x), T.tsum(x * x), T.concat([x, x])]

        with Tape() as tape, T.no_grad():
            outs = ops()
        assert tape.records == []
        for out in outs:
            assert out.node is None and not out.requires_grad
        with Tape() as tape:
            linked = ops()
        assert all(out.node is not None and out.requires_grad for out in linked)
        assert len(tape.records) == 6

    def test_nests(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).node.parents == [x, x]

    def test_restores_the_flag_when_an_exception_is_raised(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(DimensionError):
            with T.no_grad():
                x + Tensor([1.0, 2.0, 3.0])
        assert (x + x).requires_grad
        with T.no_grad():
            with pytest.raises(DimensionError):
                with T.no_grad():
                    x + Tensor([1.0, 2.0, 3.0])
            assert not (x + x).requires_grad

    def test_values_match_the_graph_forward(self):
        rng = Rng(3)
        x = Tensor(rng.gaussian(4, 5), requires_grad=True)
        w = Tensor(rng.gaussian(5, 3), requires_grad=True)

        def f():
            return T.softmax(T.relu(x @ w)) * T.softplus(x @ w)

        with T.no_grad():
            free = f()
        assert np.array_equal(free.data, f().data)


@st.composite
def aliasing_graphs(draw):
    """Leaf shape and a list of ops over a pool of same-shaped tensors."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    op = st.tuples(st.sampled_from(["add", "mul", "concat_tsum", "tsum_broadcast"]), *[st.integers(0, 99)] * 3)
    return (m, n), draw(st.lists(op, min_size=1, max_size=6))


def build_aliasing_graph(leaves, ops, weights):
    """A scalar loss whose graph reuses tensors: ``add`` hands both parents one
    gradient (the same tensor twice, at times), ``concat`` hands out slices of
    its gradient and ``tsum`` a broadcast view."""
    pool = list(leaves)
    for kind, i, j, k in ops:
        a, b, c = pool[i % len(pool)], pool[j % len(pool)], pool[k % len(pool)]
        if kind == "add":
            pool.append(a + b)
        elif kind == "mul":
            pool.append(a * b)
        elif kind == "concat_tsum":
            pool.append(c + T.tsum(T.concat([a, b], axis=0), axis=0))
        else:
            pool.append(a + T.tsum(b, axis=0) * 0.5)
    total = T.tsum(pool[-1] * Tensor(weights))
    for t in pool[len(leaves):-1]:
        total = total + T.tsum(t) * 0.25
    return total


@given(graph=aliasing_graphs(), seed=st.integers(0, 2**16))
def test_aliased_gradients_match_finite_differences(graph, seed):
    shape, ops = graph
    rng = Rng(seed)
    values = [rng.uniform(*shape, low=-0.5, high=0.5) for _ in range(2)]
    weights = rng.gaussian(*shape)
    leaves = [Tensor(v, requires_grad=True) for v in values]
    build_aliasing_graph(leaves, ops, weights).backward()
    for idx, leaf in enumerate(leaves):
        def f(t, idx=idx):
            others = [Tensor(v) for v in values]
            others[idx] = t
            return build_aliasing_graph(others, ops, weights)

        fd = finite_diff_grad(f, Tensor(values[idx]))
        analytic = leaf.grad if leaf.grad is not None else np.zeros(shape)
        assert np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1.0) < 1e-6


def test_operation_determinism():
    def build(seed):
        rng = Rng(seed)
        x = Tensor(rng.gaussian(4, 4))
        return T.softmax(T.relu(x @ Tensor(rng.gaussian(4, 4)))).data

    assert np.array_equal(build(9), build(9))
