"""Benchmark: long-haul serve soak health.

Runs the :mod:`repro.obs.soak` harness — live service, real socket,
accelerated wall clock, periodic ``metrics``/``metrics-prom`` scrapes —
against a sub-critical diurnal-Poisson feed and asserts the health
invariants hold: flat RSS, sustained placement rate, bounded queue depth.
The table goes to ``benchmarks/results/serve_soak.txt``.  Its placement
rate is set by the clock acceleration and the trace's arrival rate, so it is
a health floor, not a throughput figure.  Run it with

    REPRO_BENCH_SCALE=default PYTHONPATH=src python -m pytest \\
        benchmarks/test_bench_soak.py -m bench -q

Scale knob: ``REPRO_BENCH_SCALE=quick`` soaks ~15 wall seconds
(CI-friendly), ``default`` ~45 s, ``paper`` ~300 s.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.report import format_table
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.obs.soak import SoakConfig, run_soak
from repro.traces import DiurnalPoissonTraceSource

pytestmark = pytest.mark.bench

CLUSTER = Cluster(64, 4, 8.0)
ALGORITHM = "greedy-pmtn-migr"


def _wall_seconds() -> float:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if scale == "quick":
        return 15.0
    if scale == "paper":
        return 300.0
    return 45.0


def _trace() -> DiurnalPoissonTraceSource:
    # Sub-critical arrivals with bounded runtimes: the soak measures the
    # serving stack's endurance, not a backlog pile-up, and the bounded
    # runtime keeps the post-budget drain short.
    return DiurnalPoissonTraceSource(
        num_jobs=1_000_000,
        seed=7,
        mean_interarrival_seconds=360.0,
        runtime_log_mean=5.0,
        runtime_log_sigma=1.0,
        max_runtime_seconds=7200.0,
        serial_fraction=0.6,
    )


@pytest.mark.benchmark(group="serve-soak")
def test_serve_soak_health(report_artifact):
    wall = _wall_seconds()
    config = SoakConfig(
        acceleration=7200.0,
        wall_seconds=wall,
        scrape_interval_seconds=1.0,
        max_drain_seconds=wall,
        max_rss_slope_mb_per_min=30.0,
        min_placements_per_sec=1.0,
        max_queue_depth=10_000,
    )
    report = run_soak(
        CLUSTER,
        ALGORITHM,
        _trace(),
        config=config,
        engine_config=SimulationConfig(streaming_metrics=True),
    )
    assert report.samples, "soak produced no health samples"
    assert report.prometheus is not None and "repro_serve_" in report.prometheus
    assert report.submitted > 0 and report.placements > 0
    assert report.healthy, f"soak unhealthy: {report.violations}"
    rows = [
        [
            report.algorithm,
            f"{report.wall_seconds:.1f}",
            f"{report.sim_seconds:.0f}",
            f"{report.submitted}",
            f"{report.placements_per_wall_sec:.1f}",
            f"{report.rss_slope_mb_per_min:+.2f}",
            f"{report.max_queue_depth_seen}",
        ]
    ]
    report_artifact(
        "serve_soak",
        format_table(
            [
                "algorithm",
                "wall s",
                "sim s",
                "jobs",
                "placements/s",
                "rss MB/min",
                "max queue",
            ],
            rows,
            title=f"Serve soak health ({CLUSTER.num_nodes} nodes, "
            f"x{config.acceleration:g} clock)",
        ),
    )
