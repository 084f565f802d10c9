"""Benchmark: scheduler-as-a-service replay throughput.

Replays a sub-critical diurnal-Poisson trace through a
:class:`~repro.serve.service.SchedulerService` under the max-throughput
:class:`~repro.core.clock.SimulatedClock` and records sustained
placements/sec, admission outcomes, and queue-latency quantiles for a
representative algorithm spread (rigid batch, event-driven DFRS, periodic
DFRS); every job must be accepted and complete.  The table goes to
``benchmarks/results/serve_loadtest.txt``; throughput across changes is
compared by ``bench/run.py``'s ``serve-socket-fcfs`` pairs.  Run it with

    REPRO_BENCH_SCALE=default PYTHONPATH=src python -m pytest \\
        benchmarks/test_bench_serve.py -m bench -q

Scale knob: ``REPRO_BENCH_SCALE=quick`` replays 2k jobs (CI-friendly);
``default`` replays the issue's 10k jobs; ``paper`` 50k.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.report import format_table
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.serve import SchedulerService
from repro.traces import DiurnalPoissonTraceSource

pytestmark = pytest.mark.bench

CLUSTER = Cluster(64, 4, 8.0)
ALGORITHMS = ("fcfs", "greedy-pmtn-migr", "dynmcb8-asap-per-600")


def _num_jobs() -> int:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if scale == "quick":
        return 2_000
    if scale == "paper":
        return 50_000
    return 10_000


def _trace(num_jobs: int) -> DiurnalPoissonTraceSource:
    # Sub-critical arrivals (the streaming-metrics bench recipe): the
    # backlog stays bounded, so throughput measures the serving layer and
    # scheduler, not a quadratic pile-up.
    return DiurnalPoissonTraceSource(
        num_jobs=num_jobs,
        seed=1,
        mean_interarrival_seconds=360.0,
        runtime_log_mean=5.0,
        runtime_log_sigma=1.0,
        max_runtime_seconds=7200.0,
        serial_fraction=0.6,
    )


@pytest.mark.benchmark(group="serve-loadtest")
def test_serve_replay_throughput(report_artifact):
    num_jobs = _num_jobs()
    trace = _trace(num_jobs)
    workload = f"diurnal-poisson-{num_jobs}"
    rows = []
    for algorithm in ALGORITHMS:
        service = SchedulerService(
            CLUSTER, algorithm, config=SimulationConfig(streaming_metrics=True)
        )
        report = service.replay(trace, keep_result=False)
        assert report.submitted == report.accepted == num_jobs
        assert report.completions == num_jobs
        assert report.placements_per_wall_sec > 0.0
        rows.append(
            [
                algorithm,
                f"{report.placements}",
                f"{report.wall_seconds:.2f}",
                f"{report.placements_per_wall_sec:.0f}",
                f"{report.queue_latency.get('p50', 0.0):.1f}",
                f"{report.queue_latency.get('p99', 0.0):.1f}",
            ]
        )
    report_artifact(
        "serve_loadtest",
        format_table(
            ["algorithm", "placements", "wall s", "placements/s", "p50 s", "p99 s"],
            rows,
            title=f"Service replay throughput ({workload}, {CLUSTER.num_nodes} nodes)",
        ),
    )
