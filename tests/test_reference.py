"""Tier-1 check of the training numerics against the benchmark's recorded loss trajectories.

``perfbench/reference.json`` holds the per-step ``task_loss`` of every layer kind of each
benchmark workload at config seeds 0-15 (``perfbench/record_reference.py`` records it). Here
every kind of the ``small`` workload trains at four of those seeds, from the config
``perfbench/workloads.kind_config`` gives, and each step is checked by the benchmark's own
``child.check_rows``: finite, and within ``child.LOSS_RTOL`` (1e-6) relative of the reference.
The tolerance absorbs last-bit changes across hosts and BLAS thread counts; a change to the
training numerics, such as the aux loss scaled by 1.001, moves ``small`` far past it.
Nothing under ``perfbench/`` is written.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import child  # noqa: E402
from workloads import KINDS, kind_config  # noqa: E402

from hypermoe.config import ModelConfig  # noqa: E402
from hypermoe.model import build_model  # noqa: E402
from hypermoe.training import train_model  # noqa: E402

SEEDS = (0, 5, 10, 15)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_small_loss_trajectory_matches_the_reference(kind, seed):
    rows = train_model(build_model(ModelConfig.from_dict(kind_config("small", kind, seed))))
    checks = child.Checks(f"small {kind} seed {seed}")
    child.check_rows(rows, child.load_reference("small", kind, seed), checks, rep=0)
    assert checks.attempted == len(rows) > 0
    assert checks.failures == []
