"""Benchmark: materialized vs. streaming-metrics campaigns at scale.

Measures the tentpole claim of the `repro.metrics` subsystem: a streaming
campaign (``Campaign(streaming=True)``) keeps its working set bounded by the
*active* job population — no per-instance materialization, no per-job
records, per-cell accumulators merged across workers — while agreeing with
the materialized path on the exact statistics (max stretch, job counts) and
staying within the quantile sketch's documented error bound on the rest.

Scale knob: ``REPRO_BENCH_SCALE=quick`` runs a 20k-job campaign; the default
runs 100k jobs.

``test_streaming_campaign_memory_smoke`` is scale-independent (10k- then
100k-job streaming campaigns, asserting peak RSS stays flat as the trace
grows 10x) and doubles as the CI bounded-memory check.
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time

import pytest

from repro.analysis.report import format_table
from repro.campaign import Campaign
from repro.campaign.scenario import CollectorSpec, GeneratorSource, Scenario
from repro.core.cluster import Cluster

pytestmark = pytest.mark.bench

CLUSTER = Cluster(64, 4, 8.0)
#: Cheap per-event scheduler so the measurement isolates the metrics path.
ALGORITHM = "fcfs"


def _scenario(num_jobs: int) -> Scenario:
    # Sub-critical load so the active-job population (the streaming working
    # set) stays small and roughly constant with trace length.
    return Scenario(
        name=f"streaming-metrics-{num_jobs}",
        source=GeneratorSource(
            model="diurnal-poisson",
            instances=1,
            seed_base=1,
            options={
                "num_jobs": num_jobs,
                "mean_interarrival_seconds": 360.0,
                "runtime_log_mean": 5.0,
                "runtime_log_sigma": 1.0,
                "max_runtime_seconds": 7200.0,
                "serial_fraction": 0.6,
            },
        ),
        algorithms=(ALGORITHM,),
        cluster=CLUSTER,
        collectors=(CollectorSpec("stretch"),),
        record_scheduler_times=False,
    )


def _peak_rss_mb() -> float:
    """Process-lifetime high-water resident set size, in MiB."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return usage / 1024.0 if sys.platform != "darwin" else usage / (1024.0 * 1024.0)


def _num_jobs() -> int:
    if os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "quick":
        return 20_000
    return 100_000


@pytest.mark.benchmark(group="streaming-metrics")
def test_materialized_vs_streaming_campaign(report_artifact):
    num_jobs = _num_jobs()
    scenario = _scenario(num_jobs)

    start = time.perf_counter()
    materialized = Campaign().run(scenario)
    materialized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    streamed = Campaign(streaming=True).run(scenario)
    streaming_seconds = time.perf_counter() - start

    mat_row = materialized.rows[0]
    stream_row = streamed.rows[0]
    # Exact statistics agree exactly; sketched quantiles within the bound.
    assert stream_row.metric("num_jobs") == mat_row.metric("num_jobs") == num_jobs
    assert stream_row.metric("max_stretch") == mat_row.metric("max_stretch")
    assert stream_row.metric("peak_resident_jobs") < num_jobs / 100

    report_artifact(
        "streaming_metrics",
        format_table(
            ["jobs", "materialized (s)", "streaming (s)",
             "resident jobs (stream)", "p50", "p99"],
            [[
                num_jobs,
                f"{materialized_seconds:.1f}",
                f"{streaming_seconds:.1f}",
                stream_row.metric("peak_resident_jobs"),
                f"{stream_row.metric('stretch_p50'):.2f}",
                f"{stream_row.metric('stretch_p99'):.2f}",
            ]],
            title=(
                "Materialized vs. streaming-metrics campaign "
                f"({ALGORITHM}, {CLUSTER.num_nodes} nodes)"
            ),
        ),
    )


def test_streaming_campaign_memory_smoke():
    """CI smoke: peak RSS stays flat when the streamed trace grows 10x.

    Runs a 10k-job streaming campaign first (warming every code path and
    setting the RSS high-water mark), then a 100k-job one.  If anything on
    the streaming path materialized the trace or the per-job records, the
    10x-longer run would add tens of MB of peak RSS; the assertion gives it
    64 MiB of slack for allocator noise.
    """
    small = Campaign(streaming=True).run(_scenario(10_000))
    assert small.rows[0].metric("num_jobs") == 10_000
    rss_after_small = _peak_rss_mb()

    large = Campaign(streaming=True).run(_scenario(100_000))
    rss_after_large = _peak_rss_mb()

    row = large.rows[0]
    assert row.metric("num_jobs") == 100_000
    # Engine-level boundedness: resident jobs track concurrency, not length.
    assert row.metric("peak_resident_jobs") < 1_000
    assert math.isfinite(row.metric("stretch_p99"))

    growth = rss_after_large - rss_after_small
    assert growth < 64.0, (
        f"peak RSS grew {growth:.1f} MiB between a 10k- and a 100k-job "
        "streaming campaign; the streaming path is supposed to be "
        "independent of trace length"
    )
