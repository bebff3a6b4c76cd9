import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermoe import tensor as T
from hypermoe.config import ModelConfig
from hypermoe.errors import ContractError
from hypermoe.model import Model
from hypermoe.moe import (
    GateDecision,
    expert_forward,
    load_balance_loss,
    moe_forward,
    moe_share_forward,
    noisy_topk_gate,
)
from hypermoe.tasks import generate_task_batch
from hypermoe.tensor import Rng, Tape, Tensor

from test_tensor import tmean


def make_gate(h, n, seed=0, w_gate=None):
    """A (w_gate, w_noise) pair, each (h, n)."""
    rng = Rng(seed)
    wg = Tensor(w_gate if w_gate is not None else rng.gaussian(h, n), requires_grad=True)
    wn = Tensor(rng.gaussian(h, n), requires_grad=True)
    return wg, wn


def tiny_model(layer_kind="moe", noise_enabled=True):
    """A 2-layer model and a batch of 4 of its task's inputs."""
    model = Model(ModelConfig(h=8, d_ff=8, n_experts=3, top_k=2, n_layers=2, moduli=[3, 4], train_size=16,
                              eval_size=16, batch_size=4, layer_kind=layer_kind, noise_enabled=noise_enabled))
    return model, generate_task_batch(model.task, Rng(0), 4)[0]


def make_bank(h, d_ff, n, seed=1):
    rng = Rng(seed)
    return (
        Tensor(np.stack([rng.gaussian(h, d_ff) for _ in range(n)]), requires_grad=True),
        Tensor(np.stack([rng.gaussian(d_ff, h) for _ in range(n)]), requires_grad=True),
    )


def decision_from_probs(probs, selected):
    probs = np.asarray(probs, dtype=np.float64)
    selected = np.asarray(selected, dtype=np.int64)
    mask = np.zeros_like(probs)
    np.put_along_axis(mask, selected, 1.0, axis=1)
    pt = Tensor(probs)
    return GateDecision(pt, selected, T.index(pt, (np.arange(len(selected))[:, None], selected)), mask)


class TestGate:
    def test_hand_softmax_and_argmax(self):
        # identity-ish input so logits equal [0.1, 0.7, 0.2]
        gate = make_gate(3, 3, w_gate=np.eye(3))
        dec = noisy_topk_gate(Tensor([[0.1, 0.7, 0.2]]), gate, 1)
        assert dec.selected.tolist() == [[1]]
        assert np.allclose(dec.router_probs.data, [[0.25463, 0.46396, 0.28141]], atol=1e-4)
        assert abs(dec.gate_values.data[0, 0] - 0.46396) < 1e-4

    def test_tie_breaks_to_lowest_index(self):
        gate = make_gate(2, 4, w_gate=np.zeros((2, 4)))
        dec = noisy_topk_gate(Tensor([[0.3, -0.7]]), gate, 1)
        assert dec.selected.tolist() == [[0]]

    def test_noise_deterministic_under_seed(self):
        gate = make_gate(4, 3)
        x = Tensor(Rng(5).gaussian(6, 4))
        d1 = noisy_topk_gate(x, gate, 1, rng=Rng(9))
        d2 = noisy_topk_gate(x, gate, 1, rng=Rng(9))
        assert np.array_equal(d1.router_probs.data, d2.router_probs.data)
        assert np.array_equal(d1.selected, d2.selected)

    def test_noise_off_outside_training(self):
        # Model.forward decides about noise: an inference forward ignores whatever rng it is handed
        model, inputs = tiny_model()
        r0, r1, r2 = (model.forward(inputs, noise_rng=rng) for rng in (None, Rng(1), Rng(2)))
        assert np.array_equal(r1.outputs.data, r0.outputs.data)
        assert np.array_equal(r2.outputs.data, r0.outputs.data)
        for d0, d1, d2 in zip(r0.decisions, r1.decisions, r2.decisions):
            assert np.array_equal(d1.router_probs.data, d0.router_probs.data)
            assert np.array_equal(d2.router_probs.data, d0.router_probs.data)

    def test_training_noise_requires_rng(self):
        model, inputs = tiny_model()
        with pytest.raises(ContractError, match="requires an rng"):
            model.forward(inputs, training=True)
        # a dense model has no gate, and with noise off the gates draw nothing: neither needs an rng
        for model, inputs in (tiny_model("dense"), tiny_model(noise_enabled=False)):
            model.forward(inputs, training=True)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mask_row_sums_equal_k(self, k):
        dec = noisy_topk_gate(Tensor(Rng(3).gaussian(20, 5)), make_gate(5, 4), k)
        assert np.all(dec.binary_mask.sum(axis=1) == k)
        assert np.max(np.abs(dec.router_probs.data.sum(axis=1) - 1.0)) < 1e-12

    def test_gate_values_match_probs_at_selected(self):
        dec = noisy_topk_gate(Tensor(Rng(3).gaussian(10, 5)), make_gate(5, 4), 2)
        rows = np.arange(10)[:, None]
        assert np.array_equal(dec.gate_values.data, dec.router_probs.data[rows, dec.selected])

    def test_argmax_invariant_under_logit_shift(self):
        h, n = 4, 3
        gate = make_gate(h, n)
        x = Rng(8).gaussian(12, h)
        d1 = noisy_topk_gate(Tensor(x), gate, 1)
        # adding a constant to all of a token's logits = adding c * ones to x @ W_g;
        # emulate by shifting logits directly through an all-ones gate column trick
        logits = x @ gate[0].data
        shifted = T.softmax(Tensor(logits + 3.7))
        assert np.array_equal(np.argmax(shifted.data, axis=1), d1.selected[:, 0])

    @pytest.mark.parametrize("n", [*range(2, 13), 60])
    def test_top_k_with_ties_is_the_stable_argsort(self, n):
        # logits on a grid of quarters (an identity gate passes them through), so a row's
        # probabilities tie often and bit for bit
        logits = Rng(n).integers(0, 4, 300, n) / 4.0
        for k in range(1, n) if n <= 12 else (1, 2, 7, 30, 59):
            dec = noisy_topk_gate(Tensor(logits), make_gate(n, n, w_gate=np.eye(n)), k)
            p = dec.router_probs.data
            want = np.argsort(-p, axis=1, kind="stable")[:, :k]
            assert np.array_equal(dec.selected, want), k
            assert np.array_equal(dec.gate_values.data, np.take_along_axis(p, want, axis=1)), k
            mask = np.zeros_like(p)
            np.put_along_axis(mask, want, 1.0, axis=1)
            assert np.array_equal(dec.binary_mask, mask), k


class TestExpertForward:
    def test_zero_w1(self):
        out = expert_forward(Tensor(Rng(0).gaussian(1, 4)), (Tensor(np.zeros((4, 8))), Tensor(Rng(1).gaussian(8, 4))))
        assert np.all(out.data == 0.0)

    def test_zero_input(self):
        bank = make_bank(4, 8, 1)
        out = expert_forward(Tensor(np.zeros((1, 4))), (Tensor(bank[0].data[0]), Tensor(bank[1].data[0])))
        assert np.all(out.data == 0.0)

    def test_identity_pipeline(self):
        out = expert_forward(Tensor([[1.0, 0.0]]), (Tensor(np.eye(2)), Tensor(np.eye(2))))
        assert out.data.tolist() == [[1.0, 0.0]]


class TestMoeForward:
    def test_forced_gate_identity_expert(self):
        x = Tensor([[0.5, 2.0]])
        bank = (Tensor(np.eye(2)[None]), Tensor(np.eye(2)[None]))
        dec = decision_from_probs([[1.0]], [[0]])
        out = moe_forward(x, bank, dec)
        assert np.allclose(out.data, [[0.5, 2.0]])

    def test_all_zero_experts(self):
        bank = (
            Tensor(np.stack([Rng(0).gaussian(4, 8) for _ in range(2)])),
            Tensor(np.stack([np.zeros((8, 4)) for _ in range(2)])),
        )
        dec = decision_from_probs(np.full((3, 2), 0.5), [[0], [1], [0]])
        out = moe_forward(Tensor(Rng(1).gaussian(3, 4)), bank, dec)
        assert np.all(out.data == 0.0)

    def test_k2_matches_dense_oracle(self):
        h, d_ff, n, t = 4, 6, 3, 5
        bank = make_bank(h, d_ff, n)
        gate = make_gate(h, n)
        x = Tensor(Rng(2).gaussian(t, h))
        dec = noisy_topk_gate(x, gate, 2)
        out = moe_forward(x, bank, dec)
        # dense oracle: sum over all experts with non-selected probs zeroed
        dense = np.zeros((t, h))
        masked = dec.router_probs.data * dec.binary_mask
        for e in range(n):
            ye = np.maximum(x.data @ bank[0].data[e], 0.0) @ bank[1].data[e]
            dense += masked[:, e : e + 1] * ye
        assert np.max(np.abs(out.data - dense)) < 1e-12

    def test_unselected_experts_never_evaluated(self):
        # poison expert 1 with NaN; it is never selected, so output and every
        # gradient stay finite, its gradient rows are exactly zero, and the
        # stacks' grad_rows leave it out: Adam must not move its moments
        bank = make_bank(4, 6, 2)
        bank[0].data[1] = np.nan
        dec = decision_from_probs(np.full((3, 2), 0.5), [[0], [0], [0]])
        x = Tensor(Rng(4).gaussian(3, 4), requires_grad=True)
        out = moe_forward(x, bank, dec)
        T.tsum(out * out).backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))
        for w in bank:
            assert np.all(np.isfinite(w.grad)) and np.any(w.grad[0] != 0)
            assert np.all(w.grad[1] == 0.0)
            assert w.grad_rows.tolist() == [0]

    def test_gradients_flow_to_gate_and_experts(self):
        h, n = 4, 3
        gate = make_gate(h, n)
        bank = make_bank(h, 6, n)
        x = Tensor(Rng(6).gaussian(5, h))
        dec = noisy_topk_gate(x, gate, 1)
        loss = tmean(moe_forward(x, bank, dec)) + load_balance_loss(dec)
        loss.backward()
        assert gate[0].grad is not None and np.any(gate[0].grad != 0)
        selected_experts = set(dec.selected[:, 0].tolist())
        for e in selected_experts:
            assert np.any(bank[0].grad[e] != 0)


def per_expert_moe(x, w1s, w2s, decision):
    """The per-expert dispatch moe_forward replaced, kept as its reference.

    ``w1s`` and ``w2s`` hold one Tensor per expert. Each selected expert
    gathers its tokens, weights its outputs by their gate values and scatters
    them into a (T, h) term; the terms are added in expert order. The scatter
    is a product with a 0/1 placement matrix. An expert no token selects is
    never run and gets no gradient.
    """
    n_tokens, k = decision.selected.shape
    flat_gates = T.reshape(decision.gate_values, (-1, 1))
    out = None
    for e in range(len(w1s)):
        token_ids, k_cols = np.nonzero(decision.selected == e)
        if token_ids.size == 0:
            continue
        ys = expert_forward(T.index(x, token_ids), (w1s[e], w2s[e]))
        gv = T.index(flat_gates, token_ids * k + k_cols)
        place = np.zeros((n_tokens, token_ids.size))
        place[token_ids, np.arange(token_ids.size)] = 1.0
        term = Tensor(place) @ (ys * gv)
        out = term if out is None else out + term
    return out


@st.composite
def routing_cases(draw):
    n_tokens = draw(st.integers(1, 32))
    h, d_ff = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    # tokens route only among `used` experts, so the others get no slot
    used = draw(st.integers(k, n))
    return n_tokens, h, d_ff, n, k, used


# The grouped kernels and the routed rule as they were when each rule kept the gathered rows
# x[order // k] and built the row-order gradient gy before sorting it. Today's kernels run the
# same numpy and BLAS calls on the same values, so they must match these bit for bit.


def oracle_grouped_ffn(x, ids, k, w1, w2):
    order = np.argsort(ids.astype(np.min_scalar_type(len(w1) - 1)), kind="stable")
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


def oracle_grouped_ffn_back(gy, k, state, w1, w2):
    order, spans, xs, hidden = state
    gs = gy[order]
    dxs = np.empty_like(xs)
    dw1, dw2 = np.empty_like(w1), np.empty_like(w2)
    idle = np.ones(len(w1), dtype=bool)
    idle[[u for u, _, _ in spans]] = False
    dw1[idle], dw2[idle] = 0.0, 0.0
    for u, s, e in spans:
        d_pre = gs[s:e] @ w2[u].T
        d_pre *= hidden[s:e] > 0.0
        np.matmul(xs[s:e].T, d_pre, out=dw1[u])
        np.matmul(hidden[s:e].T, gs[s:e], out=dw2[u])
        np.matmul(d_pre, w1[u].T, out=dxs[s:e])
    dx = np.empty_like(dxs)
    dx[order] = dxs
    return dx.reshape(-1, k, dx.shape[1]).sum(axis=1), dw1, dw2


def oracle_routed_experts(x, w1, w2, selected, gates):
    n, k = selected.shape
    gd, w1d, w2d = gates.data, w1.data, w2.data
    y, state = oracle_grouped_ffn(x.data, selected.reshape(-1), k, w1d, w2d)
    y = y.reshape(n, k, -1)
    if k == 1:
        out = Tensor(gd * y[:, 0])
    else:
        out = Tensor(np.matmul(gd[:, None, :], y)[:, 0])

    def back(g, x, gates, w1, w2):
        if gates is not None:
            gates.accumulate_grad(np.einsum("th,tkh->tk", g, y))
        gy = (gd[:, :, None] * g[:, None, :]).reshape(n * k, -1)
        dx, dw1, dw2 = oracle_grouped_ffn_back(gy, k, state, w1d, w2d)
        if x is not None:
            x.accumulate_grad(dx)
        used = np.array([u for u, _, _ in state[1]])
        for w, d in ((w1, dw1), (w2, dw2)):
            if w is not None:
                w.accumulate_grad(d, used)

    return T._record(out, (x, gates, w1, w2), back)


@st.composite
def kernel_cases(draw):
    """Tokens, widths, N and K for the bitwise check; tokens route among `used` experts only."""
    n_tokens = draw(st.integers(1, 40))
    h, d_ff = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(3, n)))
    used = draw(st.integers(k, n))
    return n_tokens, h, d_ff, n, k, used


class TestGroupedDispatch:
    @given(case=routing_cases(), seed=st.integers(0, 2**16))
    def test_matches_per_expert_dispatch(self, case, seed):
        n_tokens, h, d_ff, n, k, used = case
        rng = Rng(seed)
        bank = make_bank(h, d_ff, n, seed=seed + 1)
        x = Tensor(rng.gaussian(n_tokens, h), requires_grad=True)
        pool = np.argsort(rng.uniform(n))[:used]
        selected = np.stack([pool[np.argsort(rng.uniform(used))[:k]] for _ in range(n_tokens)])
        mask = np.zeros((n_tokens, n))
        np.put_along_axis(mask, selected, 1.0, axis=1)
        gates = Tensor(rng.uniform(n_tokens, k), requires_grad=True)
        dec = GateDecision(Tensor(np.full((n_tokens, n), 1.0 / n)), selected, gates, mask)
        weights = Tensor(rng.gaussian(n_tokens, h))
        w1s = [Tensor(w, requires_grad=True) for w in bank[0].data]
        w2s = [Tensor(w, requires_grad=True) for w in bank[1].data]

        out = moe_forward(x, bank, dec)
        T.tsum(out * weights).backward()
        got = [out.data, x.grad, gates.grad, *bank[0].grad, *bank[1].grad]
        x.grad = gates.grad = None
        ref = per_expert_moe(x, w1s, w2s, dec)
        T.tsum(ref * weights).backward()
        want = [ref.data, x.grad, gates.grad] + [w.grad for w in w1s + w2s]

        for i, (g, w) in enumerate(zip(got, want)):
            if w is None:  # an expert the reference never ran: its stack rows are exactly zero
                assert np.all(g == 0.0), i
                continue
            assert g.shape == w.shape, i
            assert np.max(np.abs(g - w)) / max(np.max(np.abs(w)), 1.0) < 1e-12, i
        used = np.unique(selected).tolist()
        for w in bank:
            assert w.grad_rows.tolist() == used
        assert sum(w.grad is None for w in w1s) == n - len(used)


    def test_grad_rows_cover_every_use(self):
        # two calls on one bank add up their rows; a gradient on the whole stack covers every row
        bank = make_bank(3, 4, 4)
        x = Tensor(Rng(0).gaussian(2, 3))
        outs = [moe_forward(x, bank, decision_from_probs(np.full((2, 4), 0.25), sel)) for sel in ([[0], [0]], [[2], [0]])]
        T.tsum(outs[0] + outs[1]).backward()
        assert bank[0].grad_rows.tolist() == [0, 2] and bank[1].grad_rows.tolist() == [0, 2]
        T.tsum(bank[0]).backward()
        assert bank[0].grad_rows is None and bank[1].grad_rows.tolist() == [0, 2]

    @pytest.mark.parametrize("used", [1, 2, 5, 6])
    def test_one_graph_node_per_call(self, used):
        n_tokens, h, n = 12, 3, 6
        bank = make_bank(h, 4, n)
        x = Tensor(Rng(0).gaussian(n_tokens, h), requires_grad=True)
        selected = (np.arange(n_tokens) % used)[:, None]
        dec = decision_from_probs(np.full((n_tokens, n), 1.0 / n), selected)
        with Tape() as tape:
            moe_forward(x, bank, dec)
        assert len(tape.records) == 1
        assert tape.records[0].parents == [x, dec.gate_values.node, bank[0], bank[1]]

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 300])
    def test_slot_sort_is_the_stable_argsort(self, n):
        # the ids sort in the narrowest unsigned dtype that holds N - 1: uint8 up to 256, then uint16
        ids = Rng(n).integers(0, n, 2000)
        ids[[0, -1]] = n - 1
        rng = Rng(0)
        _, (order, *_) = T._grouped_ffn(rng.gaussian(2000, 2), ids, 1, rng.gaussian(n, 2, 3), rng.gaussian(n, 3, 2))
        assert np.array_equal(order, np.argsort(ids, kind="stable"))

    def test_k1_combine_is_bitwise_the_matmul_combine(self):
        n_tokens, h, d_ff, n = 500, 6, 16, 5
        rng = Rng(4)
        x = Tensor(rng.gaussian(n_tokens, h), requires_grad=True)
        w1, w2 = make_bank(h, d_ff, n)
        selected = rng.integers(0, n, n_tokens, 1)
        gates = Tensor(rng.uniform(n_tokens, 1), requires_grad=True)
        g = rng.gaussian(n_tokens, h)
        out = T.routed_experts(x, w1, w2, selected, gates)
        T.tsum(out * Tensor(g)).backward()  # hands routed_experts exactly g

        # oracle: the gate-weighted sum as one 1 x 1 GEMV per token, and its backward rule
        y, state = T._grouped_ffn(x.data, selected.reshape(-1), 1, w1.data, w2.data)
        y = y.reshape(n_tokens, 1, h)
        want = np.matmul(gates.data[:, None, :], y)[:, 0]
        dx, dw1, dw2 = T._grouped_ffn_back(g, gates.data.reshape(-1), x.data, 1, state, w1.data, w2.data)
        d_gates = np.einsum("th,tkh->tk", g, y)
        for got, ref in ((out.data, want), (x.grad, dx), (w1.grad, dw1), (w2.grad, dw2), (gates.grad, d_gates)):
            assert got.tobytes() == ref.tobytes()

    @given(case=kernel_cases(), seed=st.integers(0, 2**16))
    def test_bitwise_the_gathering_kernels(self, case, seed):
        # output, every gradient and the used rows equal the oracle's to the last bit
        n_tokens, h, d_ff, n, k, used = case
        rng = Rng(seed)
        pool = np.argsort(rng.uniform(n))[:used]
        selected = np.stack([pool[np.argsort(rng.uniform(used))[:k]] for _ in range(n_tokens)])
        arrays = (rng.gaussian(n_tokens, h), rng.gaussian(n, h, d_ff), rng.gaussian(n, d_ff, h), rng.uniform(n_tokens, k))
        g = rng.gaussian(n_tokens, h)
        runs = []
        for rule in (T.routed_experts, oracle_routed_experts):
            x, w1, w2, gates = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = rule(x, w1, w2, selected, gates)
            T.tsum(out * Tensor(g)).backward()  # hands the rule exactly g
            runs.append([out.data, x.grad, w1.grad, w2.grad, gates.grad, w1.grad_rows, w2.grad_rows])
        for name, got, want in zip(("out", "x", "w1", "w2", "gates", "w1 rows", "w2 rows"), *runs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestLoadBalanceLoss:
    def test_uniform_routing_is_one(self):
        n, t = 4, 8
        probs = np.full((t, n), 1.0 / n)
        selected = (np.arange(t) % n)[:, None]
        dec = decision_from_probs(probs, selected)
        assert abs(load_balance_loss(dec).item() - 1.0) < 1e-12

    def test_collapsed_routing(self):
        n, t = 4, 6
        probs = np.zeros((t, n))
        probs[:, 0] = 1.0
        dec = decision_from_probs(probs, np.zeros((t, 1), dtype=int))
        assert abs(load_balance_loss(dec).item() - 4.0) < 1e-12

    def test_hand_mixed_case(self):
        # T=4, N=2, f=[0.75,0.25], P=[0.6,0.4] -> 2*(0.75*0.6+0.25*0.4) = 1.1
        probs = np.array([[0.6, 0.4]] * 4)
        selected = np.array([[0], [0], [0], [1]])
        dec = decision_from_probs(probs, selected)
        assert abs(load_balance_loss(dec).item() - 1.1) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_lower_bound_on_shared_probability_grid(self, n, t):
        # With every token sharing one probability vector and top-1 routing from
        # it, loss = N * p_argmax >= 1 with equality iff the vector is uniform.
        rng = np.random.default_rng(n * 10 + t)
        for trial in range(300):
            row = rng.dirichlet(np.ones(n))
            p = np.tile(row, (t, 1))
            selected = p.argmax(axis=1)[:, None]
            val = load_balance_loss(decision_from_probs(p, selected)).item()
            assert val >= 1.0 - 1e-9
            if abs(val - 1.0) < 1e-9:
                assert np.allclose(row, 1.0 / n)

    def test_uniform_routing_exact_for_all_n(self):
        for n in (2, 3, 5):
            uniform = np.full((n * 2, n), 1.0 / n)
            sel = (np.arange(n * 2) % n)[:, None]
            assert abs(load_balance_loss(decision_from_probs(uniform, sel)).item() - 1.0) < 1e-12

    def test_differentiable_through_probs(self):
        gate = make_gate(4, 3)
        x = Tensor(Rng(7).gaussian(6, 4))
        dec = noisy_topk_gate(x, gate, 1)
        load_balance_loss(dec).backward()
        assert gate[0].grad is not None


class TestMoeShare:
    def test_zero_shared_reduces_to_moe(self):
        h, n = 4, 3
        bank = make_bank(h, 6, n)
        shared = (Tensor(Rng(9).gaussian(h, 6)), Tensor(np.zeros((6, h))))
        x = Tensor(Rng(10).gaussian(5, h))
        dec = noisy_topk_gate(x, make_gate(h, n), 1)
        assert np.array_equal(
            moe_share_forward(x, bank, shared, dec).data, moe_forward(x, bank, dec).data
        )

    def test_zero_bank_identity_shared(self):
        h = 2
        bank = (Tensor(np.zeros((1, h, h))), Tensor(np.zeros((1, h, h))))
        shared = (Tensor(np.eye(h)), Tensor(np.eye(h)))
        x = Tensor([[3.0, 4.0]])
        dec = decision_from_probs([[1.0]], [[0]])
        assert np.allclose(moe_share_forward(x, bank, shared, dec).data, [[3.0, 4.0]])

    def test_sum_of_parts_oracle(self):
        h, n = 4, 3
        bank = make_bank(h, 6, n)
        rng = Rng(11)
        shared = (Tensor(rng.gaussian(h, 6)), Tensor(rng.gaussian(6, h)))
        x = Tensor(Rng(12).gaussian(5, h))
        dec = noisy_topk_gate(x, make_gate(h, n), 1)
        expected = moe_forward(x, bank, dec).data + expert_forward(x, shared).data
        assert np.max(np.abs(moe_share_forward(x, bank, shared, dec).data - expected)) < 1e-15


def test_gate_pure_function_without_noise():
    gate = make_gate(4, 3)
    x = Tensor(Rng(13).gaussian(7, 4))
    d1 = noisy_topk_gate(x, gate, 1)
    d2 = noisy_topk_gate(x, gate, 1)
    assert np.array_equal(d1.router_probs.data, d2.router_probs.data)
