"""Workload definitions: the configs each layer kind runs on, and how a run spends its time.

Every workload runs the same pipeline on its own config: each kind is built,
trained with ``training.train_model`` and evaluated with ``training.evaluate``;
the trained ``hypermoe`` model goes through a checkpoint save/load round trip.
The workloads differ in the model config.

The end-to-end run times ``TIMED_KINDS``; the traced run measures the layers
of all ``KINDS``, and has ``cli.gradcheck_model`` audit the acceptance
criterion-2 config, the same in every workload. ``moe_share`` adds only a
dense expert to ``moe``, and ``hypermoe_compressed`` takes about 2 s a step
at `wide`, where its few samples in a run could not be made steady on the
2-core host the benchmark was written on, so both are left to the traced run.
One audit takes 8.5 s, a single sample per run, so it is traced only.
"""

from __future__ import annotations

KINDS = ("dense", "moe", "moe_share", "hypermoe", "hypermoe_compressed")
TIMED_KINDS = ("dense", "moe", "hypermoe")
CKPT_KIND = "hypermoe"
RSS_KINDS = ("moe", "hypermoe")
# peak_rss_mb is ru_maxrss after this many training steps. The step graphs are
# reference cycles, freed only when the cyclic collector runs, so a later peak
# depends on when it ran: after 3 `wide` steps hypermoe held 2.0 GB at most
# config seeds and 2.7 GB at seed 4, after 2 steps 1.82-1.85 GB at all 16.
RSS_STEPS = 2

# The workload seed picks one of these model/data seeds; reference.json holds
# the loss trajectories of each.
CONFIG_SEEDS = tuple(range(16))

# Acceptance criterion 2: the 2,596-parameter hypermoe model of the gradient
# audit, at the seed its acceptance test uses. It does not follow the workload
# seed: at config seeds 2, 4, 12 and 15 the audit batch has a ReLU input or a
# top-1 routing margin within 1e-5 of a kink, where the audit's central
# difference is not a derivative and the audit fails or nearly fails.
GRADCHECK_CONFIG = dict(
    h=8, d_ff=16, n_experts=3, top_k=1, n_layers=2, b=2, t=4, t_prime=4, t_k=4,
    layer_kind="hypermoe", noise_enabled=False, moduli=[3, 4], train_size=64,
    eval_size=32, batch_size=8, seed=0,
)

WORKLOADS = {
    # ROADMAP `wide`: large GEMMs, backward-dominated steps, 0.6-1.8 GB peak RSS.
    # eval_size is one 512-sample chunk of evaluate(), not the default 2000,
    # so that a run times tens of calls per kind, as many as train steps, not
    # a handful of 1-2 s ones; it does not change the training data.
    "wide": dict(
        config=dict(h=128, d_ff=256, n_experts=8, top_k=2, n_layers=4, batch_size=256,
                    noise_enabled=True, eval_size=512),
        steps={"dense": 4, "moe": 3, "moe_share": 3, "hypermoe": 3, "hypermoe_compressed": 3},
        # one kind per measuring process: sharing a heap with the other kinds
        # slowed the later steps of a hypermoe repetition from 0.8-1.05 s to
        # 0.9-1.6 s, by an amount that varied from run to run. Two processes
        # per kind, as a whole process can run 35% slower than the next one.
        processes=(("dense",), ("moe",), ("hypermoe",)) * 2,
    ),
    # Acceptance criterion 5: per-op Python overhead; the only cheap home of `conv`.
    "small": dict(
        config=dict(h=32, d_ff=64, n_experts=4, top_k=1, n_layers=2, b=4, batch_size=64,
                    moduli=[5, 3, 4, 6], train_size=4096, eval_size=512, noise_enabled=False),
        steps={kind: 20 for kind in KINDS},
        # processes whose kinds take turns, so that a slow spell of the host
        # falls on every kind alike: with a process per kind, one after
        # another, the five-run spread of train_sps.dense was 0.27. Each kind
        # starts one process, which gives its set-up time and peak RSS.
        processes=tuple(TIMED_KINDS[i:] + TIMED_KINDS[:i] for i in range(len(TIMED_KINDS))),
    ),
}
# Per workload: `steps` is train_model's step count for one repetition, and
# `processes` lists the kinds of each process that times them, one process
# after another, each for an equal share of --seconds; every kind starts at
# least one. A kind's first repetition in a process is set-up, not timing. Each evaluate() call
# takes the config's eval_size samples, as the CLI does.


def config_seed(seed: int) -> int:
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]


def kind_config(workload: str, kind: str, cfg_seed: int) -> dict:
    """The ModelConfig fields for one kind of one workload, at one config seed."""
    spec = WORKLOADS[workload]
    cfg = dict(spec["config"])
    cfg.update(layer_kind=kind, seed=cfg_seed, steps=spec["steps"][kind])
    if kind == "hypermoe_compressed":
        cfg.update(layer_kind="hypermoe", embedding_source="compressed")
    return cfg

