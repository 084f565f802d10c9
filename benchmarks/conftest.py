"""Shared configuration for the benchmark harness.

Every benchmark regenerates one artifact of the paper's evaluation section
(Figure 1a, Figure 1b, Table I, Table II, and the §V timing study) at a
reduced scale and prints the corresponding rows/series so that the shape can
be compared against the paper.  The printed output is also appended to
``benchmarks/results/`` so it survives pytest's output capturing.

Scale knobs: set the environment variable ``REPRO_BENCH_SCALE`` to ``quick``
(smallest, CI-friendly), ``default`` (a few minutes, the default), or
``paper`` (the full campaign of the paper; CPU-days).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.campaign.studies import ExperimentConfig, paper_scale
from repro.core.cluster import Cluster

RESULTS_DIR = Path(__file__).parent / "results"


def _bench_config() -> ExperimentConfig:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if scale == "paper":
        return paper_scale()
    if scale == "quick":
        return ExperimentConfig(
            cluster=Cluster(32, 4, 8.0),
            num_traces=1,
            num_jobs=50,
            load_levels=(0.3, 0.7),
            hpc2n_weeks=1,
            hpc2n_jobs_per_week=60,
        )
    return ExperimentConfig(
        cluster=Cluster(64, 4, 8.0),
        num_traces=2,
        num_jobs=100,
        load_levels=(0.1, 0.3, 0.5, 0.7, 0.9),
        hpc2n_weeks=1,
        hpc2n_jobs_per_week=400,
    )


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Experiment configuration shared by all benchmarks in the session."""
    return _bench_config()


@pytest.fixture(scope="session")
def report_artifact():
    """Print an artifact's text and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _report(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _report
