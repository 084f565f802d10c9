"""Benchmark: materialized vs. streaming trace intake at scale.

Measures the tentpole claim of the `repro.traces` subsystem: the streaming
path (`Simulator.run_stream` fed by a generator `JobSource`) produces
byte-identical results to materializing the whole trace first, and both
drivers keep only O(active jobs) resident in the engine tables — the
``peak_resident_jobs`` counter — instead of O(total jobs); what
materializing costs is the spec list itself.

Scale knob: ``REPRO_BENCH_SCALE=quick`` runs a 20k-job trace; the default
runs the 100k- and 1M-job sweep from the issue (the 1M-job pair takes a few
minutes — that is the point).

``test_streaming_memory_smoke`` is scale-independent (always a 100k-job
trace, streaming only, ~15 s) and doubles as the CI streaming-memory check.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.report import format_table
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.schedulers.registry import create_scheduler
from repro.traces import DiurnalPoissonTraceSource

pytestmark = pytest.mark.bench

CLUSTER = Cluster(64, 4, 8.0)
#: Cheap per-event scheduler so the measurement isolates trace intake.
ALGORITHM = "fcfs"
CONFIG = SimulationConfig(record_scheduler_times=False)


def _source(num_jobs: int) -> DiurnalPoissonTraceSource:
    # Sub-critical load so the active-job population (and therefore the
    # streaming working set) stays small and roughly constant with length.
    return DiurnalPoissonTraceSource(
        num_jobs=num_jobs,
        seed=1,
        mean_interarrival_seconds=360.0,
        runtime_log_mean=5.0,
        runtime_log_sigma=1.0,
        max_runtime_seconds=7200.0,
        serial_fraction=0.6,
    )


def _trace_sizes():
    if os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "quick":
        return (20_000,)
    return (100_000, 1_000_000)


@pytest.mark.benchmark(group="trace-streaming")
def test_streaming_vs_materialized_intake(report_artifact):
    rows = []
    for num_jobs in _trace_sizes():
        source = _source(num_jobs)

        start = time.perf_counter()
        materialized_jobs = list(source.jobs(CLUSTER))
        materialize_seconds = time.perf_counter() - start
        materialized_sim = Simulator(CLUSTER, create_scheduler(ALGORITHM), CONFIG)
        start = time.perf_counter()
        materialized = materialized_sim.run(materialized_jobs)
        materialized_seconds = time.perf_counter() - start
        del materialized_jobs

        streaming_sim = Simulator(CLUSTER, create_scheduler(ALGORITHM), CONFIG)
        start = time.perf_counter()
        streamed = streaming_sim.run_stream(source.jobs(CLUSTER))
        streaming_seconds = time.perf_counter() - start

        # The whole point: identical observable results ...
        assert streamed.jobs == materialized.jobs
        assert streamed.makespan == materialized.makespan
        assert streamed.idle_node_seconds == materialized.idle_node_seconds
        # ... with O(active jobs) instead of O(total jobs) resident state.
        assert streaming_sim.peak_resident_jobs < num_jobs / 100

        rows.append(
            [
                num_jobs,
                f"{materialize_seconds + materialized_seconds:.1f}",
                f"{streaming_seconds:.1f}",
                materialized_sim.peak_resident_jobs,
                streaming_sim.peak_resident_jobs,
            ]
        )

    report_artifact(
        "trace_streaming",
        format_table(
            ["jobs", "materialized (s)", "streaming (s)",
             "resident jobs (mat.)", "resident jobs (stream)"],
            rows,
            title=(
                "Materialized vs. streaming trace intake "
                f"({ALGORITHM}, {CLUSTER.num_nodes} nodes)"
            ),
        ),
    )


def test_streaming_memory_smoke():
    """CI smoke: a 100k-job generated trace keeps O(active jobs) resident.

    Scale-independent on purpose — this is the acceptance check that the
    streaming path's working set is bounded by concurrency, not length.
    """
    num_jobs = 100_000
    simulator = Simulator(CLUSTER, create_scheduler(ALGORITHM), CONFIG)
    result = simulator.run_stream(_source(num_jobs).jobs(CLUSTER))
    assert len(result.jobs) == num_jobs
    assert simulator.peak_resident_jobs < 1_000, (
        f"streaming path kept {simulator.peak_resident_jobs} jobs resident; "
        "expected O(active jobs), orders of magnitude below the trace length"
    )
