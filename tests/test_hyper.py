from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermoe import tensor as T
from hypermoe.config import ModelConfig
from hypermoe.errors import DimensionError
from hypermoe.hyper import (
    _group_by_mask,
    combine_embeddings,
    conditioning_mask,
    hypermoe_forward,
    selection_embedding,
)
from hypermoe.model import build_model
from hypermoe.moe import moe_forward, noisy_topk_gate
from hypermoe.tasks import generate_task_batch
from hypermoe.tensor import Rng, Tape, Tensor
from hypermoe.training import combined_loss

from oracles import finite_diff_grad
from test_moe import decision_from_probs, make_bank, make_gate, oracle_grouped_ffn, oracle_grouped_ffn_back
from test_tensor import tmean


# Per-token reference for the grouped generated expert: build one token's
# D = reshape(W_down k, (h, b)) and U = reshape(W_up k, (b, h)) explicitly.


@dataclass
class GeneratedExpert:
    down: Tensor  # (h, b)
    up: Tensor    # (b, h)


def generate_hyperexpert(k: Tensor, generator: tuple, h: int) -> GeneratedExpert:
    """Generate one width-h bottleneck expert from a single (1, t_k) embedding and (W_down, W_up)."""
    w_down, w_up = generator
    if k.shape[-1] != w_down.shape[1]:
        raise DimensionError(f"embedding width {k.shape} does not match t_k={w_down.shape[1]}")
    b = w_down.shape[0] // h
    down = T.reshape(k @ T.transpose_last2(w_down), (h, b))
    up = T.reshape(k @ T.transpose_last2(w_up), (b, h))
    return GeneratedExpert(down, up)


def hyperexpert_forward(x: Tensor, gen: GeneratedExpert) -> Tensor:
    """Bottleneck expert forward: relu(x D) U."""
    if x.shape[-1] != gen.down.shape[0]:
        raise DimensionError(f"hyperexpert_forward: x {x.shape} vs D {gen.down.shape}")
    return T.relu(x @ gen.down) @ gen.up


def identity_mlp(width):
    return Tensor(np.eye(width)), Tensor(np.zeros(width)), Tensor(np.eye(width)), Tensor(np.zeros(width))


def make_hyper(h, n, n_layers, t, tp, tk, b, seed=20, zero_generator=False):
    """(expert table, (layer table, MLP, projector, generator)), as ``hypermoe_forward`` takes them."""
    rng = Rng(seed)
    gen = (lambda *s: np.zeros(s)) if zero_generator else (lambda *s: rng.gaussian(*s, std=0.3))
    experts = Tensor(rng.gaussian(n, tp), requires_grad=True)
    layers = Tensor(rng.gaussian(n_layers, tp), requires_grad=True)
    mlp = (
        Tensor(rng.gaussian(tp, t), requires_grad=True),
        Tensor(np.zeros(t), requires_grad=True),
        Tensor(rng.gaussian(t, t), requires_grad=True),
        Tensor(np.zeros(t), requires_grad=True),
    )
    proj = (Tensor(rng.gaussian(t + tp, tk), requires_grad=True), Tensor(np.zeros(tk), requires_grad=True))
    generator = (Tensor(gen(h * b, tk), requires_grad=True), Tensor(gen(b * h, tk), requires_grad=True))
    return experts, (layers, mlp, proj, generator)


class TestUnselectedMask:
    def test_three_experts_one_selected(self):
        dec = decision_from_probs([[0.2, 0.6, 0.2]], [[1]])
        assert conditioning_mask(dec, "unselected").data.tolist() == [[1.0, 0.0, 1.0]]

    def test_k2(self):
        dec = decision_from_probs([[0.4, 0.1, 0.1, 0.4]], [[0, 3]])
        assert conditioning_mask(dec, "unselected").data.tolist() == [[0.0, 1.0, 1.0, 0.0]]

    def test_degenerate_single_expert(self):
        dec = decision_from_probs([[1.0]], [[0]])
        assert conditioning_mask(dec, "unselected").data.tolist() == [[0.0]]

    def test_row_sums_equal_n_minus_k(self):
        dec = noisy_topk_gate(Tensor(Rng(1).gaussian(30, 5)), make_gate(5, 4), 2)
        assert np.all(conditioning_mask(dec, "unselected").data.sum(axis=1) == 2)


class TestSelectionEmbedding:
    def test_single_unselected_expert(self):
        mask = Tensor([[0.0, 1.0]])  # expert 0 selected
        out = selection_embedding(mask, Tensor([[1.0, 2.0], [3.0, 4.0]]), identity_mlp(2))
        assert np.allclose(out.data, np.maximum([[3.0, 4.0]], 0.0))

    def test_uniform_average(self):
        mask = Tensor([[1.0, 0.0, 1.0]])  # expert 1 selected
        out = selection_embedding(mask, Tensor([[1.0, 0.0], [9.0, 9.0], [0.0, 1.0]]), identity_mlp(2))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_identity_mlp_is_relu_of_aggregate(self):
        mask = Tensor([[1.0, 1.0]])
        out = selection_embedding(mask, Tensor([[-1.0, 2.0], [3.0, -4.0]]), identity_mlp(2))
        assert np.allclose(out.data, np.maximum([[1.0, -1.0]], 0.0))

    def test_aggregation_weights_sum_to_one(self):
        dec = noisy_topk_gate(Tensor(Rng(2).gaussian(10, 5)), make_gate(5, 4), 1)
        mask = conditioning_mask(dec, "unselected")
        weights = mask.data / mask.data.sum(axis=1, keepdims=True)
        assert np.all(weights >= 0)
        assert np.allclose(weights.sum(axis=1), 1.0)


class TestCombineEmbeddings:
    def test_zero_projector(self):
        proj = (Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        out = combine_embeddings(Tensor([[1.0, 2.0]]), 0, Tensor([[3.0]]), proj)
        assert np.all(out.data == 0.0)

    def test_selector_projection(self):
        # identity on the first 2 coordinates of concat(p, l)
        w = np.zeros((3, 2))
        w[0, 0] = w[1, 1] = 1.0
        out = combine_embeddings(Tensor([[1.0, 2.0]]), 0, Tensor([[3.0]]), (Tensor(w), Tensor(np.zeros(2))))
        assert out.data.tolist() == [[1.0, 2.0]]

    def test_matches_affine_oracle(self):
        rng = Rng(4)
        layers = Tensor(rng.gaussian(2, 2))
        w, b = Tensor(rng.gaussian(5, 4)), Tensor(rng.gaussian(4))
        p = Tensor(rng.gaussian(6, 3))
        out = combine_embeddings(p, 1, layers, (w, b))
        concat = np.concatenate([p.data, np.tile(layers.data[1], (6, 1))], axis=1)
        assert np.max(np.abs(out.data - (concat @ w.data + b.data))) < 1e-15


class TestGenerateHyperexpert:
    def test_basis_vector_extracts_column(self):
        rng = Rng(5)
        w_down, w_up = Tensor(rng.gaussian(6, 3)), Tensor(rng.gaussian(6, 3))
        k = Tensor([[1.0, 0.0, 0.0]])
        gen = generate_hyperexpert(k, (w_down, w_up), 3)
        assert np.allclose(gen.down.data, w_down.data[:, 0].reshape(3, 2))
        assert np.allclose(gen.up.data, w_up.data[:, 0].reshape(2, 3))

    def test_zero_embedding(self):
        generator = (Tensor(Rng(6).gaussian(6, 3)), Tensor(Rng(7).gaussian(6, 3)))
        gen = generate_hyperexpert(Tensor(np.zeros((1, 3))), generator, 3)
        assert np.all(gen.down.data == 0.0) and np.all(gen.up.data == 0.0)

    def test_matches_matvec_oracle(self):
        rng = Rng(8)
        h, b, tk = 2, 1, 2
        w_down, w_up = Tensor(rng.gaussian(h * b, tk)), Tensor(rng.gaussian(b * h, tk))
        k = rng.gaussian(1, tk)
        gen = generate_hyperexpert(Tensor(k), (w_down, w_up), h)
        assert np.array_equal(gen.down.data, (w_down.data @ k[0]).reshape(h, b))
        assert np.array_equal(gen.up.data, (w_up.data @ k[0]).reshape(b, h))

    def test_width_mismatch(self):
        generator = (Tensor(np.zeros((6, 3))), Tensor(np.zeros((6, 3))))
        with pytest.raises(DimensionError):
            generate_hyperexpert(Tensor(np.zeros((1, 4))), generator, 3)


class TestHyperexpertForward:
    def test_zero_up(self):
        gen = GeneratedExpert(Tensor(Rng(9).gaussian(4, 2)), Tensor(np.zeros((2, 4))))
        out = hyperexpert_forward(Tensor(Rng(10).gaussian(1, 4)), gen)
        assert np.all(out.data == 0.0)

    def test_zero_input(self):
        gen = GeneratedExpert(Tensor(Rng(11).gaussian(4, 2)), Tensor(Rng(12).gaussian(2, 4)))
        assert np.all(hyperexpert_forward(Tensor(np.zeros((1, 4))), gen).data == 0.0)

    def test_hand_case(self):
        gen = GeneratedExpert(Tensor([[1.0], [1.0]]), Tensor([[1.0, 0.0]]))
        out = hyperexpert_forward(Tensor([[1.0, 1.0]]), gen)
        assert out.data.tolist() == [[2.0, 0.0]]


@st.composite
def generated_expert_case(draw):
    """Token count, h, b, t_k and a group id per token: one group, one per token, or random."""
    n_tokens = draw(st.integers(1, 6))
    h = draw(st.integers(2, 6))
    b, tk = draw(st.integers(1, h - 1)), draw(st.integers(1, 5))
    layout = draw(st.sampled_from(("one", "per_token", "random")))
    if layout == "one":
        groups = [0] * n_tokens
    elif layout == "per_token":
        groups = draw(st.permutations(range(n_tokens)))
    else:
        groups = draw(st.lists(st.integers(0, n_tokens - 1), min_size=n_tokens, max_size=n_tokens))
    return n_tokens, h, b, tk, np.asarray(groups, dtype=np.int64)


def oracle_generated_expert(x, codes, groups, w_down, w_up):
    """The generated expert as it was when its rule kept the (U, h, b) and (U, b, h) stacks
    and the gathered rows of x; ``generated_expert`` must match it bit for bit."""
    n_groups, h = codes.shape[0], x.shape[-1]
    cd, wdd, wud = codes.data, w_down.data, w_up.data
    b = wdd.shape[0] // h
    down = (cd @ wdd.T).reshape(n_groups, h, b)
    up = (cd @ wud.T).reshape(n_groups, b, h)
    y, state = oracle_grouped_ffn(x.data, groups, 1, down, up)
    out = Tensor(y)

    def back(g, x, codes, w_down, w_up):
        dx, d_down, d_up = oracle_grouped_ffn_back(g, 1, state, down, up)
        d_down, d_up = d_down.reshape(n_groups, h * b), d_up.reshape(n_groups, b * h)
        if x is not None:
            x.accumulate_grad(dx)
        if codes is not None:
            codes.accumulate_grad(d_down @ wdd + d_up @ wud)
        if w_down is not None:
            w_down.accumulate_grad(d_down.T @ cd)
        if w_up is not None:
            w_up.accumulate_grad(d_up.T @ cd)

    return T._record(out, (x, codes, w_down, w_up), back)


@st.composite
def grouped_cases(draw):
    """Up to 40 tokens in one group, one group per token, or any number of groups between."""
    n_tokens = draw(st.integers(1, 40))
    h = draw(st.integers(2, 6))
    b, tk = draw(st.integers(1, h - 1)), draw(st.integers(1, 5))
    n_groups = draw(st.integers(1, n_tokens))
    return n_tokens, h, b, tk, n_groups


class TestGeneratedExpert:
    @given(case=generated_expert_case(), seed=st.integers(0, 2**16))
    def test_matches_per_token_oracle(self, case, seed):
        n_tokens, h, b, tk, groups = case
        rng = Rng(seed)
        x = Tensor(rng.gaussian(n_tokens, h), requires_grad=True)
        codes = Tensor(rng.gaussian(int(groups.max()) + 1, tk), requires_grad=True)
        generator = (
            Tensor(rng.gaussian(h * b, tk, std=0.3), requires_grad=True),
            Tensor(rng.gaussian(b * h, tk, std=0.3), requires_grad=True),
        )
        leaves = (x, codes, *generator)
        weights = Tensor(rng.gaussian(n_tokens, h))

        out = T.generated_expert(x, codes, groups, *generator)
        T.tsum(out * weights).backward()
        fast = [out.data] + [t.grad for t in leaves]
        for t in leaves:
            t.grad = None

        rows = [
            hyperexpert_forward(
                T.index(x, (slice(i, i + 1),)),
                generate_hyperexpert(T.index(codes, (slice(u, u + 1),)), generator, h),
            )
            for i, u in enumerate(groups)
        ]
        oracle_out = T.concat(rows, axis=0)
        T.tsum(oracle_out * weights).backward()
        oracle = [oracle_out.data] + [t.grad for t in leaves]

        for name, got, want in zip(("out", "x", "codes", "w_down", "w_up"), fast, oracle):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0) < 1e-12, name

    @given(case=grouped_cases(), seed=st.integers(0, 2**16))
    def test_bitwise_the_stack_keeping_rule(self, case, seed):
        # output and every gradient equal the oracle's to the last bit
        n_tokens, h, b, tk, n_groups = case
        rng = Rng(seed)
        groups = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, n_tokens - n_groups)])
        groups = groups[np.argsort(rng.uniform(n_tokens))]
        arrays = (rng.gaussian(n_tokens, h), rng.gaussian(n_groups, tk), rng.gaussian(h * b, tk, std=0.3),
                  rng.gaussian(b * h, tk, std=0.3))
        g = rng.gaussian(n_tokens, h)
        runs = []
        for rule in (T.generated_expert, oracle_generated_expert):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = rule(leaves[0], leaves[1], groups, *leaves[2:])
            T.tsum(out * Tensor(g)).backward()  # hands the rule exactly g
            runs.append([out.data] + [t.grad for t in leaves])
        for name, got, want in zip(("out", "x", "codes", "w_down", "w_up"), *runs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_builds_no_per_token_weights(self, monkeypatch):
        # every tensor of the layer's graph, each op's inputs and output, stays below
        # T*h*b elements, the size of the per-token D (T, b) and U (T, b, h) stacks
        n_tokens, h, b, tk = 32, 8, 4, 3
        x, bank, gate, hyper = setup_layer(t_tokens=n_tokens, h=h, n=3, d_ff=16, tk=tk, b=b)
        sizes, record = [], T._record

        def recording(out, inputs, rule):
            sizes.extend([out.size] + [t.size for t in inputs])
            return record(out, inputs, rule)

        monkeypatch.setattr(T, "_record", recording)
        with Tape() as tape:
            hypermoe_forward(x, bank, noisy_topk_gate(x, gate, 1), *hyper, 0, "unselected")
        assert len(tape.records) > 10 and len(sizes) > 20
        assert max(sizes) < n_tokens * h * b, max(sizes)


def setup_layer(seed=0, t_tokens=5, h=4, n=3, d_ff=6, n_layers=2, t=3, tp=3, tk=3, b=2, **hkw):
    bank = make_bank(h, d_ff, n, seed=seed + 1)
    gate = make_gate(h, n, seed=seed + 2)
    x = Tensor(Rng(seed + 3).gaussian(t_tokens, h))
    hyper = make_hyper(h, n, n_layers, t, tp, tk, b, seed=seed + 4, **hkw)
    return x, bank, gate, hyper


class TestHypermoeForward:
    def test_zero_generator_reduces_to_moe(self):
        x, bank, gate, hyper = setup_layer(zero_generator=True)
        dec = noisy_topk_gate(x, gate, 1)
        assert np.array_equal(
            hypermoe_forward(x, bank, dec, *hyper, 0, "unselected").data, moe_forward(x, bank, dec).data
        )

    def test_identical_tokens_identical_hyperexpert(self):
        x, bank, gate, hyper = setup_layer()
        xx = Tensor(np.tile(x.data[:1], (3, 1)))
        dec = noisy_topk_gate(xx, gate, 1)
        out = hypermoe_forward(xx, bank, dec, *hyper, 0, "unselected")
        assert np.allclose(out.data[0], out.data[1])
        assert np.allclose(out.data[0], out.data[2])

    def test_matches_pipeline_composition_oracle(self):
        # compose the five sub-operations independently, token by token
        x, bank, gate, hyper = setup_layer(t_tokens=2, h=4, n=3, b=2)
        dec = noisy_topk_gate(x, gate, 1)
        experts, (layers, mlp, proj, generator) = hyper
        out = hypermoe_forward(x, bank, dec, *hyper, 1, "unselected")
        base = moe_forward(x, bank, dec)
        mask = conditioning_mask(dec, "unselected")
        for i in range(2):
            p_i = selection_embedding(Tensor(mask.data[i : i + 1]), experts, mlp)
            k_i = combine_embeddings(p_i, 1, layers, proj)
            gen = generate_hyperexpert(k_i, generator, x.shape[1])
            e_i = hyperexpert_forward(Tensor(x.data[i : i + 1]), gen)
            assert np.max(np.abs(out.data[i] - (base.data[i] + e_i.data[0]))) < 1e-12

    def test_token_permutation_equivariance(self):
        x, bank, gate, hyper = setup_layer(t_tokens=6)
        perm = np.array([3, 0, 5, 1, 4, 2])
        dec = noisy_topk_gate(x, gate, 1)
        out = hypermoe_forward(x, bank, dec, *hyper, 0, "unselected")
        xp = Tensor(x.data[perm])
        decp = noisy_topk_gate(xp, gate, 1)
        outp = hypermoe_forward(xp, bank, decp, *hyper, 0, "unselected")
        assert np.allclose(outp.data, out.data[perm], atol=1e-12)

    def test_swap_symmetry_of_expert_embeddings(self):
        # swapping two expert rows of S together with the mask columns leaves
        # each token's generated expert unchanged
        x, bank, gate, (experts, (_, mlp, _, _)) = setup_layer(t_tokens=4, n=3)
        dec = noisy_topk_gate(x, gate, 1)
        mask = conditioning_mask(dec, "unselected").data
        p1 = selection_embedding(Tensor(mask), experts, mlp)
        p2 = selection_embedding(Tensor(mask[:, [1, 0, 2]]), Tensor(experts.data[[1, 0, 2]]), mlp)
        assert np.allclose(p1.data, p2.data)

    def test_condition_on_selected_variant(self):
        x, bank, gate, hyper = setup_layer()
        dec = noisy_topk_gate(x, gate, 1)
        out_sel = hypermoe_forward(x, bank, dec, *hyper, 0, "selected")
        out_uns = hypermoe_forward(x, bank, dec, *hyper, 0, "unselected")
        assert not np.allclose(out_sel.data, out_uns.data)

    def test_gradient_completeness_and_accuracy(self):
        x, bank, gate, hyper = setup_layer(t_tokens=3)
        experts, (layers, mlp, proj, generator) = hyper
        groups = {
            "S": experts,
            "l": layers,
            "mlp.w1": mlp[0],
            "mlp.w2": mlp[2],
            "proj.w": proj[0],
            "w_down": generator[0],
            "w_up": generator[1],
            "gate": gate[0],
            "experts.w1": bank[0],
        }

        dec = noisy_topk_gate(x, gate, 1)
        out = hypermoe_forward(x, bank, dec, *hyper, 0, "unselected")
        tmean(out * out).backward()
        for name, p in groups.items():
            assert p.grad is not None and np.any(p.grad != 0), name

        for name, p in groups.items():
            analytic = p.grad.copy()

            def f(candidate, _p=p):
                saved = _p.data
                _p.data = candidate.data
                try:
                    d = noisy_topk_gate(x, gate, 1)
                    y = hypermoe_forward(x, bank, d, *hyper, 0, "unselected")
                    return tmean(y * y)
                finally:
                    _p.data = saved

            fd = finite_diff_grad(f, Tensor(p.data))
            rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-6)
            assert rel < 1e-4, (name, rel)


class TestGroupByMask:
    # A float key sum(2**e) is exact only up to 53 experts: 2**0 + 2**59 and
    # 2**1 + 2**59 both round to 2**59, and so do their unselected complements.
    SELECTED = np.array([[59, 0], [1, 59], [0, 53], [54, 0], [0, 59], [58, 57]])

    def test_exact_key_beyond_53_experts(self):
        groups, first = _group_by_mask(self.SELECTED)
        assert len(set(groups[:4])) == 4
        assert groups[4] == groups[0] and groups[5] not in groups[:5]
        assert np.array_equal(groups[first], np.arange(len(first)))

    @pytest.mark.parametrize("n", [2, 255, 256, 257, 300])
    def test_matches_the_per_row_formula(self, n):
        # the keys sort as uint8 up to 256 experts, then as uint16; the oracle sorts and
        # compares one token's row at a time, in int64
        k = min(3, n - 1)
        selected = np.argsort(Rng(n).uniform(2 * n, n), axis=1)[:, :k]  # K distinct experts per token
        selected[0] = np.arange(n - k, n)
        keys = np.sort(selected, axis=1)
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        groups = np.empty(len(order), dtype=np.int64)
        groups[order] = np.cumsum(new) - 1
        got_groups, got_first = _group_by_mask(selected)
        assert np.array_equal(got_groups, groups) and np.array_equal(got_first, order[new])

    def test_layer_matches_per_token_oracle_at_60_experts(self):
        n = 60
        x, bank, gate, hyper = setup_layer(t_tokens=len(self.SELECTED), n=n)
        probs = Rng(7).uniform(len(self.SELECTED), n, low=0.1, high=1.0)
        dec = decision_from_probs(probs / probs.sum(axis=1, keepdims=True), self.SELECTED)
        experts, (layers, mlp, proj, generator) = hyper
        out = hypermoe_forward(x, bank, dec, *hyper, 1, "unselected")
        base = moe_forward(x, bank, dec)
        mask = conditioning_mask(dec, "unselected")
        for i in range(len(self.SELECTED)):
            p_i = selection_embedding(Tensor(mask.data[i : i + 1]), experts, mlp)
            k_i = combine_embeddings(p_i, 1, layers, proj)
            e_i = hyperexpert_forward(Tensor(x.data[i : i + 1]), generate_hyperexpert(k_i, generator, x.shape[1]))
            assert np.max(np.abs(out.data[i] - (base.data[i] + e_i.data[0]))) < 1e-12


def small_training_graph_nodes(layer_kind):
    """Graph nodes of one training forward plus loss on the `small` benchmark workload (acceptance criterion 5)."""
    cfg = ModelConfig(
        d_ff=64, n_experts=4, top_k=1, n_layers=2, b=4, batch_size=64, moduli=[5, 3, 4, 6],
        train_size=4096, eval_size=512, noise_enabled=False, layer_kind=layer_kind, seed=0,
    )
    model = build_model(cfg)
    inputs, targets = generate_task_batch(model.task, Rng(1), cfg.batch_size)
    with Tape() as tape:
        result = model.forward(inputs, training=True, noise_rng=Rng(2))
        combined_loss(result, targets, model.task, cfg)
    return len(tape.records)


def test_small_training_graph_node_count():
    # one routed-experts node and one generated-expert node per layer; four
    # nodes per used expert and a combine node per layer gave 91
    assert small_training_graph_nodes("hypermoe") <= 83


def test_small_moe_training_graph_node_count():
    # one routed-experts node per layer; four nodes per used expert and a
    # combine node per layer gave 67
    assert small_training_graph_nodes("moe") <= 59


@pytest.mark.parametrize("seed", range(10))
def test_zero_generator_property_random_configs(seed):
    n = 2 + seed % 4
    h = 4 + 2 * (seed % 3)
    x, bank, gate, hyper = setup_layer(seed=seed, h=h, n=n, zero_generator=True)
    dec = noisy_topk_gate(x, gate, 1)
    assert np.array_equal(
        hypermoe_forward(x, bank, dec, *hyper, 0, "unselected").data, moe_forward(x, bank, dec).data
    )


def hyper_sizes(cfg):
    """Parameter counts of the HyperExpert side (every ``hyper.*`` tensor) of a built model."""
    model = build_model(cfg)
    return {name: p.size for name, p in model.params.items() if name.startswith("hyper.")}


class TestParamCountReport:
    def test_hypernetwork_count_independent_of_layers(self):
        for n_layers in (2, 8):
            cfg = ModelConfig(h=16, b=4, t_k=8, n_layers=n_layers, d_ff=32)
            sizes = hyper_sizes(cfg)
            assert sizes["hyper.w_down"] + sizes["hyper.w_up"] == 2 * 16 * 4 * 8 == 1024

    def test_per_layer_increment_is_t_prime(self):
        a = sum(hyper_sizes(ModelConfig(n_layers=3)).values())
        b = sum(hyper_sizes(ModelConfig(n_layers=4)).values())
        assert b - a == ModelConfig().t_prime

    def test_moe_layer_formula(self):
        cfg = ModelConfig(h=8, d_ff=16, n_experts=3, layer_kind="moe")
        model = build_model(cfg)
        layer = sum(p.size for name, p in model.params.items() if name.startswith(("l0.gate.", "l0.expert")))
        expected = 3 * (8 * 16 + 16 * 8) + 2 * 8 * 3
        assert layer == expected
