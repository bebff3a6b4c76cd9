"""The benchmark's metric catalogue: every name it prints, with unit and direction.

``END_TO_END`` is what a user of the library sees and what ``--trace 0``
prints; ``per_layer()`` lists what ``--trace 1`` prints, each taken from one
entry of a traced child's span table. ``layer_map.json`` says which end-to-end
metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

from workloads import CKPT_KIND, KINDS, RSS_KINDS, TIMED_KINDS

ROUTED = tuple(k for k in KINDS if k != "dense")
HYPER = ("hypermoe", "hypermoe_compressed")
COMPRESSED = ("hypermoe_compressed",)

# name, unit, better, bound (share of the parent's median it may worsen by). The
# timings get the largest bound allowed: on the 2-core host the benchmark was
# written on, the same run drifts by 10-40% from one minute to the next.
END_TO_END = (
    [(f"train_sps.{k}", "samples/s", "higher", 0.25) for k in TIMED_KINDS]
    + [(f"eval_sps.{k}", "samples/s", "higher", 0.25) for k in TIMED_KINDS]
    + [("ckpt_roundtrip_s", "s", "lower", 0.25)]
    + [(f"peak_rss_mb.{k}", "MB", "lower", 0.1) for k in RSS_KINDS]
    + [("setup_s", "s", "lower", 0.25)]
)

# (table key in the traced child, unit, kinds it exists for); the metric is "<key>.<kind>"
_TRAIN = (
    ("tensor.backward.ms", "ms", KINDS),
    ("tensor.graph_nodes", "count", KINDS),
    ("tensor.step_alloc_peak_mb", "MB", KINDS),
    ("model.forward.self_ms", "ms", KINDS),
    ("model.forward.calls", "count", KINDS),
    ("training.Adam.step.ms", "ms", KINDS),
    ("training.combined_loss.ms", "ms", KINDS),
    ("tasks.generate_task_batch.ms", "ms", KINDS),
    ("moe.expert_forward.ms", "ms", KINDS),
    ("moe.expert_forward.calls", "count", KINDS),
    ("moe.moe_forward.self_ms", "ms", ROUTED),
    ("moe.noisy_topk_gate.ms", "ms", ROUTED),
    ("moe.load_balance_loss.ms", "ms", ROUTED),
    ("hyper.hypermoe_forward.self_ms", "ms", HYPER),
    ("hyper.selection_embedding.ms", "ms", HYPER),
    ("hyper.combine_embeddings.ms", "ms", HYPER),
    ("conv.compress_expert_weights.ms", "ms", COMPRESSED),
    ("conv.compress_expert_weights.calls", "count", COMPRESSED),
)
# eval copies, "<key>.eval.<kind>", per evaluate() call
_EVAL = (
    ("model.forward.self_ms", "ms", KINDS),
    ("tensor.graph_nodes", "count", KINDS),
    ("moe.moe_forward.self_ms", "ms", ROUTED),
    ("hyper.hypermoe_forward.self_ms", "ms", HYPER),
)
# ckpt copies, "<key>.<CKPT_KIND>", per call
_CKPT = (
    ("checkpoint.save_checkpoint", "ms"),
    ("checkpoint.load_checkpoint", "ms"),
)
# gradcheck copies, totals over one audit except graph nodes (per forward pass)
_GRADCHECK = (
    ("cli.gradcheck_model.ms", "cli.gradcheck_model.ms", "ms"),
    ("model.forward.calls", "model.forward.calls.gradcheck", "count"),
    ("model.forward.self_ms", "model.forward.self_ms.gradcheck", "ms"),
    ("moe.moe_forward.self_ms", "moe.moe_forward.self_ms.gradcheck", "ms"),
    ("hyper.hypermoe_forward.self_ms", "hyper.hypermoe_forward.self_ms.gradcheck", "ms"),
    ("tensor.graph_nodes_per_forward", "tensor.graph_nodes.gradcheck", "count"),
)


def per_layer() -> list[tuple[str, str, tuple[str, ...]]]:
    """(metric name, unit, path) of every per-layer metric, in print order.

    The path locates the value in the traced results: ``results[path[0]]["layer"]``
    indexed by the rest of it; path[0] is a kind, or "gradcheck" for the audit.
    """
    rows = []
    for key, unit, kinds in _TRAIN:
        rows += [(f"{key}.{k}", unit, (k, "train", key)) for k in kinds]
    rows += [(f"trace_overhead_pct.{k}", "%", (k, "trace_overhead_pct")) for k in KINDS]
    for key, unit, kinds in _EVAL:
        rows += [(f"{key}.eval.{k}", unit, (k, "eval", key)) for k in kinds]
    rows += [(f"{key}.ms", unit, (CKPT_KIND, "ckpt", key)) for key, unit in _CKPT]
    rows += [(name, unit, ("gradcheck", "gradcheck", key)) for key, name, unit in _GRADCHECK]
    return rows
