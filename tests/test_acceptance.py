"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import os
import time

import numpy as np

from hypermoe.checkpoint import load_checkpoint, save_checkpoint
from hypermoe.cli import gradcheck_model, main, run_compare
from hypermoe.config import ModelConfig
from hypermoe.conv import ConvPipelineSpec, Stage, shape_chain
from hypermoe.hyper import conditioning_mask, hypermoe_forward
from hypermoe.model import build_model
from hypermoe.moe import GateDecision, load_balance_loss, moe_forward, noisy_topk_gate
from hypermoe.tensor import Rng, Tensor
from hypermoe.training import train_model


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def random_layer(rng: Rng, zero_generator: bool):
    n = int(rng.integers(2, 7))
    h = int(rng.integers(4, 17))
    k = int(rng.integers(1, n))
    d_ff = int(rng.integers(4, 17))
    b = int(rng.integers(1, h))
    t = int(rng.integers(2, 9))
    tp = int(rng.integers(2, 9))
    tk = int(rng.integers(2, 9))
    n_tok = int(rng.integers(1, 12))
    gate = (Tensor(rng.gaussian(h, n)), Tensor(rng.gaussian(h, n)))
    bank = (
        Tensor(np.stack([rng.gaussian(h, d_ff) for _ in range(n)])),
        Tensor(np.stack([rng.gaussian(d_ff, h) for _ in range(n)])),
    )
    gen = (lambda *s: np.zeros(s)) if zero_generator else (lambda *s: rng.gaussian(*s))
    # (expert table, (layer table, selection MLP, projector, generator))
    hyper = (
        Tensor(rng.gaussian(n, tp)),
        (
            Tensor(rng.gaussian(3, tp)),
            (Tensor(rng.gaussian(tp, t)), Tensor(rng.gaussian(t)), Tensor(rng.gaussian(t, t)), Tensor(rng.gaussian(t))),
            (Tensor(rng.gaussian(t + tp, tk)), Tensor(rng.gaussian(tk))),
            (Tensor(gen(h * b, tk)), Tensor(gen(b * h, tk))),
        ),
    )
    x = Tensor(rng.gaussian(n_tok, h))
    return x, gate, k, bank, hyper


def test_criterion_1_zero_generator_equivalence():
    """With a zeroed generator the augmented layer must equal plain MoE exactly."""
    start = time.perf_counter()
    rng = Rng(1001)
    exact = 0
    for _ in range(100):
        x, gate, k, bank, hyper = random_layer(rng, zero_generator=True)
        dec = noisy_topk_gate(x, gate, k)
        a = hypermoe_forward(x, bank, dec, *hyper, 0, "unselected").data
        b = moe_forward(x, bank, dec).data
        exact += int(np.array_equal(a, b))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (zero-generator equivalence)",
        exact == 100 and elapsed < 10,
        f"{exact}/100 configs bit-exact in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_end_to_end_gradient_audit():
    """Every parameter group of a 2-layer toy model matches finite differences."""
    start = time.perf_counter()
    cfg = ModelConfig(
        h=8, d_ff=16, n_experts=3, top_k=1, n_layers=2, b=2,
        t=4, t_prime=4, t_k=4, layer_kind="hypermoe", noise_enabled=False,
        moduli=[3, 4], train_size=64, eval_size=32, batch_size=8, seed=0,
    )
    rows = gradcheck_model(cfg, tol=1e-4)
    worst = max(rows, key=lambda r: r["max_rel_error"])
    failed = [r["group"] for r in rows if not r["passed"]]
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (end-to-end gradient audit)",
        not failed and elapsed < 120,
        f"{len(rows)} parameter groups, worst {worst['group']} at "
        f"{worst['max_rel_error']:.2e} (tol 1e-4), {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_routing_invariants():
    """Selection counts and mask sums hold over 10^4 tokens; uniform routing scores 1.0."""
    rng = Rng(1003)
    checked = 0
    ok = True
    while checked < 10_000:
        n = 2 + checked % 6
        k = 1 + checked % n if (1 + checked % n) < n else 1
        h = 4 + checked % 9
        tokens = 1 + checked % 64
        gate = (Tensor(rng.gaussian(h, n)), Tensor(rng.gaussian(h, n)))
        dec = noisy_topk_gate(Tensor(rng.gaussian(tokens, h)), gate, k, rng=rng)
        z = dec.binary_mask
        ok &= dec.selected.shape == (tokens, k)
        ok &= all(len(set(row)) == k for row in dec.selected)
        ok &= bool(np.all(z.sum(axis=1) == k))
        ok &= bool(np.all(conditioning_mask(dec, "unselected").data.sum(axis=1) == n - k))
        checked += tokens
        if not ok:
            break
    # exactly uniform routing: equal probabilities and equal assignment counts
    uniform_ok = True
    for n in (2, 4, 8):
        t_tok = 4 * n
        probs = Tensor(np.full((t_tok, n), 1.0 / n))
        selected = (np.arange(t_tok) % n)[:, None]
        mask = np.zeros((t_tok, n))
        np.put_along_axis(mask, selected, 1.0, axis=1)
        gates = Tensor(np.full((t_tok, 1), 1.0 / n))
        dec = GateDecision(probs, selected, gates, mask)
        uniform_ok &= abs(load_balance_loss(dec).item() - 1.0) <= 1e-9
    report(
        "criterion 3 (routing invariants)",
        ok and uniform_ok and checked >= 10_000,
        f"{checked} tokens checked; uniform routing loss = 1.0 within 1e-9: {uniform_ok}",
    )


def test_criterion_4_sublinear_parameter_growth():
    """Generator size is layer-independent; each extra layer costs exactly t' parameters."""
    start = time.perf_counter()
    base = dict(
        h=16, d_ff=16, n_experts=3, t=4, t_prime=4, t_k=4, b=2,
        layer_kind="hypermoe", moduli=[3, 4], train_size=64, eval_size=32,
    )
    gen_counts = []
    hyper_totals = {}
    for n_layers in (2, 4, 8):
        cfg = ModelConfig(**base, n_layers=n_layers)
        model = build_model(cfg)
        census = {name: p.size for name, p in model.params.items()}
        gen_counts.append(census["hyper.w_down"] + census["hyper.w_up"])
        hyper_totals[n_layers] = sum(v for k, v in census.items() if k.startswith("hyper."))
        assert (2 * cfg.h * cfg.b) * cfg.t_k == gen_counts[-1]
    tp = base["t_prime"]
    constant = len(set(gen_counts)) == 1
    increments_ok = (
        hyper_totals[4] - hyper_totals[2] == 2 * tp
        and hyper_totals[8] - hyper_totals[4] == 4 * tp
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (sub-linear parameter growth)",
        constant and increments_ok and elapsed < 5,
        f"generator fixed at {gen_counts[0]} params for L=2/4/8; "
        f"per-layer increment = t' = {tp}; {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_5_throughput_overhead():
    """Augmented layers may cost throughput, but not more than half of plain MoE."""
    from hypermoe.cli import _timed_steps

    start = time.perf_counter()
    base = dict(
        d_ff=64, n_experts=4, top_k=1, n_layers=2, b=4, batch_size=64,
        moduli=[5, 3, 4, 6], train_size=4096, eval_size=512, noise_enabled=False,
    )
    ratios = {}
    for phase, floor in (("train", 0.5), ("eval", 0.6)):
        sps = {}
        for kind in ("moe", "hypermoe"):
            model = build_model(ModelConfig(**base, layer_kind=kind, seed=0))
            sps[kind] = _timed_steps(model, phase, steps=30, warmup=5)
        ratios[phase] = (sps["hypermoe"] / sps["moe"], floor)
    elapsed = time.perf_counter() - start
    ok = all(r >= floor for r, floor in ratios.values()) and elapsed < 300
    report(
        "criterion 5 (throughput overhead)",
        ok,
        f"hypermoe/moe samples-per-second: train {ratios['train'][0]:.2f} (floor 0.50), "
        f"eval {ratios['eval'][0]:.2f} (floor 0.60); {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_6_learning_signal():
    """Routed experts must beat an equal-active-parameter dense net, and the
    augmented variant must not trail plain MoE by more than one point."""
    start = time.perf_counter()
    cfg = dict(
        h=32, d_ff=16, n_experts=4, top_k=1, n_layers=2, b=4,
        moduli=[2, 3, 4, 6], operand_range=24, train_size=2000, eval_size=304,
        steps=3000, batch_size=128, learning_rate=2e-3, aux_loss_coef=0.02,
        noise_enabled=False,
    )
    rows = run_compare(cfg, ["dense", "moe", "hypermoe"], [0, 1, 2])
    means = {
        kind: float(np.mean([r["metric"] for r in rows if r["method"] == kind]))
        for kind in ("dense", "moe", "hypermoe")
    }
    elapsed = time.perf_counter() - start
    ok = means["moe"] > means["dense"] and means["hypermoe"] >= means["moe"] - 0.01
    report(
        "criterion 6 (learning signal)",
        ok and elapsed < 900,
        f"mean eval accuracy over 3 seeds: dense {means['dense']:.3f}, "
        f"moe {means['moe']:.3f}, hypermoe {means['hypermoe']:.3f}; "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_criterion_7_compression_shape_chain():
    """The reference pipeline reproduces every intermediate size; the desk-scale
    pipeline emits one embedding row of width t' per expert."""
    start = time.perf_counter()
    expected = [
        (2, 3072, 768),
        (2, 614, 153),
        (32, 614, 153),
        (32, 38, 25),
        (32, 12, 8),
        (128, 12, 8),
        (128, 1, 1),
    ]
    # the reference chain for 2x3072x768 stacked expert weights -> 128 dims
    reference = ConvPipelineSpec(
        stages=[
            Stage.depthwise(5, 5, 5, 5),
            Stage.pointwise(2, 32),
            Stage.avg_pool(16, 6),
            Stage.depthwise(3, 3, 3, 3),
            Stage.pointwise(32, 128),
            Stage.avg_pool(8, 8),
        ],
        out_dim=128,
    )
    chain = shape_chain(reference, (2, 3072, 768))
    cfg = ModelConfig(
        h=16, d_ff=16, n_experts=3, t=4, t_prime=4, t_k=4, b=2, n_layers=2,
        layer_kind="hypermoe", embedding_source="compressed",
        moduli=[3, 4], train_size=64, eval_size=32,
    )
    model = build_model(cfg)
    emb = model.expert_table(0)
    elapsed = time.perf_counter() - start
    ok = chain == expected and emb.shape == (cfg.n_experts, cfg.t_prime) and elapsed < 5
    report(
        "criterion 7 (compression shape chain)",
        ok,
        f"reference chain {'matches' if chain == expected else 'differs'}; "
        f"desk-scale embeddings {emb.shape} == ({cfg.n_experts}, {cfg.t_prime}); "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_criterion_8_conditioning_variants():
    """Both conditioning choices (selected / unselected experts) train to
    completion from a shared seed and emit comparable rows."""
    base = dict(
        h=16, d_ff=16, n_experts=3, top_k=1, n_layers=2, t=4, t_prime=4, t_k=4, b=2,
        moduli=[3, 4], train_size=64, eval_size=32, steps=30, batch_size=16,
    )
    rows = {}
    for variant in ("selected", "unselected"):
        out = run_compare({**base, "condition_on": variant}, ["hypermoe"], [0])
        rows[variant] = out[0]
    ok = all(0.0 <= rows[v]["metric"] <= 1.0 for v in rows)
    report(
        "criterion 8 (conditioning variants)",
        ok,
        "eval accuracy with conditioning on "
        f"unselected {rows['unselected']['metric']:.3f} vs "
        f"selected {rows['selected']['metric']:.3f} (no ordering asserted)",
    )


def test_criterion_9_checkpoint_and_determinism(tmp_path):
    """Save/load is parameter-identical and rerunning a seed reproduces the
    metrics file byte for byte."""
    import json

    cfg_dict = dict(
        h=16, d_ff=16, n_experts=3, top_k=1, n_layers=2, t=4, t_prime=4, t_k=4, b=2,
        layer_kind="hypermoe", moduli=[3, 4], train_size=64, eval_size=32,
        steps=25, batch_size=16, seed=3,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", str(cfg_path), "--out", out_a]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", out_b]) == 0
    csv_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    csv_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    model, _ = load_checkpoint(os.path.join(out_a, "checkpoint.bin"))
    path2 = str(tmp_path / "resaved.bin")
    save_checkpoint(model, path2)
    reloaded, _ = load_checkpoint(path2)
    params_ok = all(
        np.array_equal(model.params[n].data, reloaded.params[n].data) for n in model.params
    )
    report(
        "criterion 9 (checkpoint roundtrip and determinism)",
        csv_a == csv_b and params_ok,
        f"metrics byte-identical across reruns: {csv_a == csv_b}; "
        f"checkpoint roundtrip parameter-identical: {params_ok}",
    )
