import math
import sys

import numpy as np
import pytest
from hypothesis import given
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


class TestReductionsLosses:
    def test_mse_zero(self):
        assert T.mse(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0

    def test_mean(self):
        assert tmean(Tensor([2.0, 4.0])).item() == 3.0

    def test_cross_entropy_uniform(self):
        loss = T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(TargetError):
            T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([2]))


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.tsum(x).backward()
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_hand_chain_rule(self):
        # loss = mse(w*x, y) at w=1, x=2, y=0 -> dL/dw = 2*(2)*2 = 8
        w = Tensor([1.0], requires_grad=True)
        loss = T.mse(w * Tensor([2.0]), Tensor([0.0]))
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
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(x)
        loss.backward()
        loss.grad = None
        loss.backward()
        assert x.grad.tolist() == [2.0, 2.0]

    def test_repeated_backward_does_not_write_through_a_borrowed_view(self):
        # n's gradient is a sum of two, and x gets a view of it; the second pass
        # must add into n out of place, or x's gradient would change under it
        x = Tensor([1.0, 2.0], requires_grad=True)
        n = T.reshape(x, (2, 1))
        loss = T.tsum(n + n)
        loss.backward()
        assert x.grad.tolist() == [2.0, 2.0]
        loss.grad = None
        loss.backward()
        # add's gradient is 1 + 1, n's is 2 + 2 + 2, and x's is 2 + 6
        assert x.grad.tolist() == [8.0, 8.0]

    def test_composite_matches_finite_differences(self):
        rng = Rng(11)
        c = Tensor(rng.gaussian(2, 3))
        w = Tensor(rng.gaussian(3, 3), requires_grad=True)

        def f(wt):
            return tmean(T.softmax(T.relu(c @ wt)) * c)

        f(w).backward()
        fd = finite_diff_grad(f, w)
        assert np.max(np.abs(w.grad - fd)) / max(np.max(np.abs(fd)), 1e-8) < 1e-4


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


def _matmul_grads_match_finite_differences(a: Tensor, b: Tensor) -> None:
    """Gradients of sum((a @ b)^2) for both operands against central differences."""

    def f(at, bt):
        out = at @ bt
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
        # a transposed view reaches the flat path with non-contiguous data
        rng = Rng(seed)
        a = T.transpose_last2(Tensor(rng.gaussian(batch, k, m), requires_grad=True))
        w = Tensor(rng.gaussian(k, n), requires_grad=True)
        assert not a.data.flags.c_contiguous or min(m, k) == 1
        _matmul_grads_match_finite_differences(a, w)

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


class TestGatherScatter:
    def test_gather_rows_backward(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        T.tsum(T.gather_rows(table, np.array([0, 0, 2]))).backward()
        assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]

    @pytest.mark.parametrize(
        "ids", [np.array([0, 2, 3, 5]), np.array([4, 1, 1, 3, 4, 4]), np.array([[0, 1], [1, 0]])],
        ids=["strictly_increasing", "repeated", "2d_repeated"],
    )
    @pytest.mark.parametrize("dense_first", [True, False])
    def test_gather_rows_backward_matches_add_at(self, ids, dense_first):
        # the scatter must equal np.add.at, repeated ids included, whether it
        # gives the table its first gradient or adds to an existing one
        rng = Rng(5)
        table = Tensor(rng.gaussian(6, 3), requires_grad=True)
        weights = rng.gaussian(*ids.shape, 3)
        gathered = T.tsum(T.gather_rows(table, ids) * Tensor(weights))
        dense = T.tsum(table * Tensor(np.full((6, 3), 0.5)))
        (dense + gathered if dense_first else gathered + dense).backward()
        expected = np.full((6, 3), 0.5)
        np.add.at(expected, ids.reshape(-1), weights.reshape(-1, 3))
        assert np.allclose(table.grad, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_accumulate_at_with_dense_consumer(self, dense_first):
        # the gather's backward runs before or after the dense consumer's, so
        # its scattered gradient is both the first one and a later one
        ids = np.array([0, 0, 2, 1, 0])
        weights = Rng(1).gaussian(5, 2)

        def f(table):
            dense = T.tsum(table * table)
            gathered = T.tsum(T.gather_rows(table, ids) * Tensor(weights))
            return dense + gathered if dense_first else gathered + dense

        table = Tensor(Rng(2).gaussian(3, 2), requires_grad=True)
        f(table).backward()
        assert np.allclose(table.grad, finite_diff_grad(f, table), atol=1e-8)

    def test_take_per_row(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.take_per_row(x, np.array([[2], [0]]))
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
        positions = {id(t): i for i, t in enumerate(tape.records)}
        for rec in tape.records:
            for parent in rec._parents:
                if id(parent) in positions:
                    assert positions[id(parent)] < positions[id(rec)]
        assert positions[id(z)] == len(tape.records) - 1

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
        inputs, _ = model.task.eval_set(16)
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
        with Tape() as tape, T.no_grad():
            outs = [T.relu(x), x @ w, T.softmax(x), T.tsum(x * x), T.concat([x, x])]
        assert tape.records == []
        for out in outs:
            assert out._parents == () and out._backward is None and not out.requires_grad

    def test_nests(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x)._parents == (x, x)

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
