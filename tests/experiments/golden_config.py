"""Shared tiny-scale configurations for the golden-output tests.

These configurations pin down the exact workloads behind the golden files in
``tests/experiments/golden/``; regenerate the files with
``python tests/experiments/regen_golden.py`` (only legitimate when the
*formatting* intentionally changes — the simulated numbers must not move).
"""

from __future__ import annotations

from repro.campaign.studies import ExperimentConfig
from repro.core.cluster import Cluster

GOLDEN_CONFIG = ExperimentConfig(
    cluster=Cluster(16, 4, 8.0),
    num_traces=2,
    num_jobs=30,
    load_levels=(0.3, 0.8),
    algorithms=("fcfs", "easy", "greedy-pmtn", "dynmcb8-asap-per-600"),
    penalty_seconds=300.0,
    hpc2n_weeks=1,
    hpc2n_jobs_per_week=40,
    seed_base=7,
)

TABLE2_GOLDEN_ALGORITHMS = ("greedy-pmtn", "greedy-pmtn-migr", "dynmcb8-per-600")

EXTENSIONS_GOLDEN_ALGORITHMS = (
    "easy",
    "dynmcb8-asap-per-600",
    "dynmcb8-asap-throttled-per-600",
)
