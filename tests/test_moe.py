import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermoe import tensor as T
from hypermoe.errors import ConfigurationError, DimensionError
from hypermoe.moe import (
    ExpertBank,
    GateConfig,
    GateDecision,
    SharedMlp,
    expert_forward,
    load_balance_loss,
    moe_forward,
    moe_share_forward,
    noisy_topk_gate,
)
from hypermoe.tensor import Rng, Tape, Tensor

from test_tensor import tmean


def make_gate(h, n, k=1, noise=False, seed=0, w_gate=None):
    rng = Rng(seed)
    wg = Tensor(w_gate if w_gate is not None else rng.gaussian(h, n), requires_grad=True)
    wn = Tensor(rng.gaussian(h, n), requires_grad=True)
    return GateConfig(n, k, noise, wg, wn)


def make_bank(h, d_ff, n, seed=1):
    rng = Rng(seed)
    return ExpertBank(
        Tensor(np.stack([rng.gaussian(h, d_ff) for _ in range(n)]), requires_grad=True),
        Tensor(np.stack([rng.gaussian(d_ff, h) for _ in range(n)]), requires_grad=True),
    )


def decision_from_probs(probs, selected):
    probs = np.asarray(probs, dtype=np.float64)
    selected = np.asarray(selected, dtype=np.int64)
    mask = np.zeros_like(probs)
    np.put_along_axis(mask, selected, 1.0, axis=1)
    pt = Tensor(probs)
    return GateDecision(pt, selected, T.take_per_row(pt, selected), mask)


class TestGate:
    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ConfigurationError):
            make_gate(4, 3, k=5)

    def test_hand_softmax_and_argmax(self):
        # identity-ish input so logits equal [0.1, 0.7, 0.2]
        cfg = make_gate(3, 3, w_gate=np.eye(3))
        dec = noisy_topk_gate(Tensor([[0.1, 0.7, 0.2]]), cfg)
        assert dec.selected.tolist() == [[1]]
        assert np.allclose(dec.router_probs.data, [[0.25463, 0.46396, 0.28141]], atol=1e-4)
        assert abs(dec.gate_values.data[0, 0] - 0.46396) < 1e-4

    def test_tie_breaks_to_lowest_index(self):
        cfg = make_gate(2, 4, w_gate=np.zeros((2, 4)))
        dec = noisy_topk_gate(Tensor([[0.3, -0.7]]), cfg)
        assert dec.selected.tolist() == [[0]]

    def test_noise_deterministic_under_seed(self):
        cfg = make_gate(4, 3, noise=True)
        x = Tensor(Rng(5).gaussian(6, 4))
        d1 = noisy_topk_gate(x, cfg, rng=Rng(9), training=True)
        d2 = noisy_topk_gate(x, cfg, rng=Rng(9), training=True)
        assert np.array_equal(d1.router_probs.data, d2.router_probs.data)
        assert np.array_equal(d1.selected, d2.selected)

    def test_noise_off_outside_training(self):
        cfg = make_gate(4, 3, noise=True)
        x = Tensor(Rng(5).gaussian(6, 4))
        d1 = noisy_topk_gate(x, cfg, rng=Rng(1), training=False)
        d2 = noisy_topk_gate(x, cfg, rng=Rng(2), training=False)
        assert np.array_equal(d1.router_probs.data, d2.router_probs.data)

    def test_training_noise_requires_rng(self):
        cfg = make_gate(4, 3, noise=True)
        with pytest.raises(ConfigurationError):
            noisy_topk_gate(Tensor(np.zeros((1, 4))), cfg, training=True)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mask_row_sums_equal_k(self, k):
        cfg = make_gate(5, 4, k=k)
        dec = noisy_topk_gate(Tensor(Rng(3).gaussian(20, 5)), cfg)
        assert np.all(dec.binary_mask.sum(axis=1) == k)
        assert np.max(np.abs(dec.router_probs.data.sum(axis=1) - 1.0)) < 1e-12

    def test_gate_values_match_probs_at_selected(self):
        cfg = make_gate(5, 4, k=2)
        dec = noisy_topk_gate(Tensor(Rng(3).gaussian(10, 5)), cfg)
        rows = np.arange(10)[:, None]
        assert np.array_equal(dec.gate_values.data, dec.router_probs.data[rows, dec.selected])

    def test_argmax_invariant_under_logit_shift(self):
        h, n = 4, 3
        cfg = make_gate(h, n)
        x = Rng(8).gaussian(12, h)
        d1 = noisy_topk_gate(Tensor(x), cfg)
        # adding a constant to all of a token's logits = adding c * ones to x @ W_g;
        # emulate by shifting logits directly through an all-ones gate column trick
        logits = x @ cfg.w_gate.data
        shifted = T.softmax(Tensor(logits + 3.7))
        assert np.array_equal(np.argmax(shifted.data, axis=1), d1.selected[:, 0])


class TestExpertForward:
    def test_zero_w1(self):
        out = expert_forward(Tensor(Rng(0).gaussian(1, 4)), (Tensor(np.zeros((4, 8))), Tensor(Rng(1).gaussian(8, 4))))
        assert np.all(out.data == 0.0)

    def test_zero_input(self):
        bank = make_bank(4, 8, 1)
        out = expert_forward(Tensor(np.zeros((1, 4))), (Tensor(bank.w1.data[0]), Tensor(bank.w2.data[0])))
        assert np.all(out.data == 0.0)

    def test_identity_pipeline(self):
        out = expert_forward(Tensor([[1.0, 0.0]]), (Tensor(np.eye(2)), Tensor(np.eye(2))))
        assert out.data.tolist() == [[1.0, 0.0]]


class TestMoeForward:
    def test_forced_gate_identity_expert(self):
        x = Tensor([[0.5, 2.0]])
        bank = ExpertBank(Tensor(np.eye(2)[None]), Tensor(np.eye(2)[None]))
        dec = decision_from_probs([[1.0]], [[0]])
        out = moe_forward(x, bank, dec)
        assert np.allclose(out.data, [[0.5, 2.0]])

    def test_all_zero_experts(self):
        bank = ExpertBank(
            Tensor(np.stack([Rng(0).gaussian(4, 8) for _ in range(2)])),
            Tensor(np.stack([np.zeros((8, 4)) for _ in range(2)])),
        )
        dec = decision_from_probs(np.full((3, 2), 0.5), [[0], [1], [0]])
        out = moe_forward(Tensor(Rng(1).gaussian(3, 4)), bank, dec)
        assert np.all(out.data == 0.0)

    def test_k2_matches_dense_oracle(self):
        h, d_ff, n, t = 4, 6, 3, 5
        bank = make_bank(h, d_ff, n)
        cfg = make_gate(h, n, k=2)
        x = Tensor(Rng(2).gaussian(t, h))
        dec = noisy_topk_gate(x, cfg)
        out = moe_forward(x, bank, dec)
        # dense oracle: sum over all experts with non-selected probs zeroed
        dense = np.zeros((t, h))
        masked = dec.router_probs.data * dec.binary_mask
        for e in range(n):
            ye = np.maximum(x.data @ bank.w1.data[e], 0.0) @ bank.w2.data[e]
            dense += masked[:, e : e + 1] * ye
        assert np.max(np.abs(out.data - dense)) < 1e-12

    def test_unselected_experts_never_evaluated(self):
        # poison expert 1 with NaN; it is never selected, so output and every
        # gradient stay finite, its gradient rows are exactly zero, and the
        # stacks' grad_rows leave it out: Adam must not move its moments
        bank = make_bank(4, 6, 2)
        bank.w1.data[1] = np.nan
        dec = decision_from_probs(np.full((3, 2), 0.5), [[0], [0], [0]])
        x = Tensor(Rng(4).gaussian(3, 4), requires_grad=True)
        out = moe_forward(x, bank, dec)
        T.tsum(out * out).backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))
        for w in (bank.w1, bank.w2):
            assert np.all(np.isfinite(w.grad)) and np.any(w.grad[0] != 0)
            assert np.all(w.grad[1] == 0.0)
            assert w.grad_rows.tolist() == [0]

    @pytest.mark.parametrize("s1,s2", [((2, 4, 6), (3, 6, 4)), ((2, 4, 6), (2, 4, 6)), ((4, 6), (6, 4))])
    def test_bank_rejects_mismatched_stacks(self, s1, s2):
        with pytest.raises(ConfigurationError, match="expert bank needs stacks"):
            ExpertBank(Tensor(np.zeros(s1)), Tensor(np.zeros(s2)))

    def test_expert_count_mismatch(self):
        bank = make_bank(4, 6, 2)
        dec = decision_from_probs(np.full((1, 3), 1 / 3), [[0]])
        with pytest.raises(ConfigurationError):
            moe_forward(Tensor(np.zeros((1, 4))), bank, dec)

    def test_width_mismatch_names_both_shapes(self):
        bank = make_bank(4, 6, 2)
        dec = decision_from_probs(np.full((1, 2), 0.5), [[1]])
        with pytest.raises(DimensionError, match=r"x \(1, 3\) vs W1 \(4, 6\)"):
            moe_forward(Tensor(np.zeros((1, 3))), bank, dec)

    def test_gradients_flow_to_gate_and_experts(self):
        h, n = 4, 3
        cfg = make_gate(h, n)
        bank = make_bank(h, 6, n)
        x = Tensor(Rng(6).gaussian(5, h))
        dec = noisy_topk_gate(x, cfg)
        loss = tmean(moe_forward(x, bank, dec)) + load_balance_loss(dec)
        loss.backward()
        assert cfg.w_gate.grad is not None and np.any(cfg.w_gate.grad != 0)
        selected_experts = set(dec.selected[:, 0].tolist())
        for e in selected_experts:
            assert np.any(bank.w1.grad[e] != 0)


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
        ys = expert_forward(T.gather_rows(x, token_ids), (w1s[e], w2s[e]))
        gv = T.gather_rows(flat_gates, token_ids * k + k_cols)
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
        w1s = [Tensor(w, requires_grad=True) for w in bank.w1.data]
        w2s = [Tensor(w, requires_grad=True) for w in bank.w2.data]

        out = moe_forward(x, bank, dec)
        T.tsum(out * weights).backward()
        got = [out.data, x.grad, gates.grad, *bank.w1.grad, *bank.w2.grad]
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
        for w in (bank.w1, bank.w2):
            assert w.grad_rows.tolist() == used
        assert sum(w.grad is None for w in w1s) == n - len(used)


    def test_grad_rows_cover_every_use(self):
        # two calls on one bank add up their rows; a gradient on the whole stack covers every row
        bank = make_bank(3, 4, 4)
        x = Tensor(Rng(0).gaussian(2, 3))
        outs = [moe_forward(x, bank, decision_from_probs(np.full((2, 4), 0.25), sel)) for sel in ([[0], [0]], [[2], [0]])]
        T.tsum(outs[0] + outs[1]).backward()
        assert bank.w1.grad_rows.tolist() == [0, 2] and bank.w2.grad_rows.tolist() == [0, 2]
        T.tsum(bank.w1).backward()
        assert bank.w1.grad_rows is None and bank.w2.grad_rows.tolist() == [0, 2]

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
        assert tape.records[0]._parents == (x, dec.gate_values, bank.w1, bank.w2)


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
        cfg = make_gate(4, 3)
        x = Tensor(Rng(7).gaussian(6, 4))
        dec = noisy_topk_gate(x, cfg)
        load_balance_loss(dec).backward()
        assert cfg.w_gate.grad is not None


class TestMoeShare:
    def test_zero_shared_reduces_to_moe(self):
        h, n = 4, 3
        bank = make_bank(h, 6, n)
        shared = SharedMlp(Tensor(Rng(9).gaussian(h, 6)), Tensor(np.zeros((6, h))))
        x = Tensor(Rng(10).gaussian(5, h))
        dec = noisy_topk_gate(x, make_gate(h, n))
        assert np.array_equal(
            moe_share_forward(x, bank, shared, dec).data, moe_forward(x, bank, dec).data
        )

    def test_zero_bank_identity_shared(self):
        h = 2
        bank = ExpertBank(Tensor(np.zeros((1, h, h))), Tensor(np.zeros((1, h, h))))
        shared = SharedMlp(Tensor(np.eye(h)), Tensor(np.eye(h)))
        x = Tensor([[3.0, 4.0]])
        dec = decision_from_probs([[1.0]], [[0]])
        assert np.allclose(moe_share_forward(x, bank, shared, dec).data, [[3.0, 4.0]])

    def test_sum_of_parts_oracle(self):
        h, n = 4, 3
        bank = make_bank(h, 6, n)
        rng = Rng(11)
        shared = SharedMlp(Tensor(rng.gaussian(h, 6)), Tensor(rng.gaussian(6, h)))
        x = Tensor(Rng(12).gaussian(5, h))
        dec = noisy_topk_gate(x, make_gate(h, n))
        expected = moe_forward(x, bank, dec).data + expert_forward(x, (shared.w1, shared.w2)).data
        assert np.max(np.abs(moe_share_forward(x, bank, shared, dec).data - expected)) < 1e-15


def test_gate_pure_function_without_noise():
    cfg = make_gate(4, 3, noise=False)
    x = Tensor(Rng(13).gaussian(7, 4))
    d1 = noisy_topk_gate(x, cfg, training=True)
    d2 = noisy_topk_gate(x, cfg, training=True)
    assert np.array_equal(d1.router_probs.data, d2.router_probs.data)
