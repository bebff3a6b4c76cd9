"""Record the reference loss trajectories that the benchmark checks training against.

Run from the repository root, at the commit whose behaviour is the reference:

    python3 perfbench/record_reference.py

For each workload, layer kind and config seed it trains one model exactly
as a benchmark run does and stores the per-step ``task_loss`` in
``perfbench/reference.json``.
"""

from __future__ import annotations

import gc
import json
import os
import sys

from child import REFERENCE
from workloads import CONFIG_SEEDS, KINDS, WORKLOADS, kind_config


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from hypermoe.config import ModelConfig
    from hypermoe.model import build_model
    from hypermoe.training import train_model

    reference = {}
    for workload in sorted(WORKLOADS):
        table = reference[workload] = {}
        for kind in KINDS:
            table[kind] = {}
            for seed in CONFIG_SEEDS:
                cfg = ModelConfig.from_dict(kind_config(workload, kind, seed))
                rows = train_model(build_model(cfg))
                gc.collect()  # the graphs are reference cycles; free them before the next model
                table[kind][str(cfg.seed)] = [row["task_loss"] for row in rows]
                print(workload, kind, cfg.seed, rows[-1]["task_loss"], flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
