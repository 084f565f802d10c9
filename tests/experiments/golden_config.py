"""Shared tiny-scale configurations for the golden-output tests.

These configurations pin down the exact workloads behind the golden files in
``tests/experiments/golden/`` (one ``<study name>.txt`` per entry of
:data:`repro.campaign.studies.STUDIES`, dashes as underscores); regenerate the
files, and ``results/paper_grid.md``, with ``python
tests/experiments/regen_golden.py`` (only legitimate when the *formatting*
intentionally changes — the simulated numbers must not move).
"""

from __future__ import annotations

import pathlib
import re
from typing import Any, Dict

from repro.campaign.studies import ExperimentConfig
from repro.core.cluster import Cluster

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

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

#: Keyword arguments each study's golden run adds to ``GOLDEN_CONFIG``; a
#: study missing here (or missing its golden file) fails the suite.
GOLDEN_KWARGS: Dict[str, Dict[str, Any]] = {
    "paper": {},
    "timing": {"algorithm": "dynmcb8"},
    "compare": {"load": 0.5},
    "period-sweep": {"periods": (300.0, 1200.0), "load": 0.5},
    "packing-ablation": {
        "num_nodes": 8, "num_instances": 5, "jobs_per_instance": 10, "seed": 3,
        "packers": ("mcb8", "first-fit", "worst-fit"),
    },
    "utilization": {"load": 0.5, "algorithms": ("easy", "dynmcb8-asap-per-600")},
    "extensions": {
        "algorithms": ("easy", "dynmcb8-asap-per-600", "dynmcb8-asap-throttled-per-600")
    },
}

#: Table rows whose value is a wall-clock measurement of the host.
WALL_CLOCK_ROWS = ("mean scheduling time (s)", "max scheduling time (s)", "fraction of")


def golden_path(study: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{study.replace('-', '_')}.txt"


def mask_wall_clock(text: str) -> str:
    """Blank the host-dependent values (only the timing table has any)."""
    lines = []
    for line in text.splitlines():
        if any(marker in line for marker in WALL_CLOCK_ROWS):
            line = re.sub(r"\d+\.\d+\s*$", "<wall-clock>", line)
        lines.append(line)
    return "\n".join(lines)
