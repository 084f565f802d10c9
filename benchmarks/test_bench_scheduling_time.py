"""Benchmark E5: §V scheduling-time study — DFRS is cheap enough in practice.

Reproduces the feasibility argument of §V: the time DYNMCB8 needs to compute
an allocation is orders of magnitude smaller than typical job inter-arrival
times.  Absolute numbers depend on the host (the paper used a 3.2 GHz Xeon);
the reproduced claim is the relationship, not the milliseconds.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.bench

from repro.campaign.studies import run_timing_study


@pytest.mark.benchmark(group="timing")
def test_scheduling_time_study(benchmark, bench_config, report_artifact):
    result = benchmark.pedantic(
        lambda: run_timing_study(bench_config, algorithm="dynmcb8"),
        rounds=1,
        iterations=1,
    )
    report_artifact("scheduling_time", result.format())

    def pooled(metric):
        return np.concatenate([row.metric(metric) for row in result.outcome.rows])

    times = pooled("scheduler_times")
    assert times.size > 0
    # Allocation computation is far below the mean inter-arrival time.
    assert times.mean() < pooled("interarrivals").mean() / 10.0
    # Small events (<= 10 jobs in the system) are usually instantaneous.
    small = times[pooled("scheduler_job_counts") <= 10]
    assert np.mean(small <= 0.001) >= 0.25
