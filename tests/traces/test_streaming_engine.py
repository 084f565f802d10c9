"""Streaming intake of the simulation engine: ``run`` is ``run_stream`` of the
arrival-ordered workload, and resident state is O(active jobs)."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobSpec
from repro.core.penalties import ReschedulingPenaltyModel
from repro.exceptions import SimulationError
from repro.schedulers.registry import create_scheduler
from repro.traces import LublinTraceSource, scale_to_load

CLUSTER = Cluster(32, 4, 8.0)
CONFIG = SimulationConfig(penalty_model=ReschedulingPenaltyModel(300.0))


def _workload(num_jobs=150, seed=23):
    raw = LublinTraceSource(num_jobs=num_jobs, seed=seed).materialize(CLUSTER)
    # The raw trace heavily overloads the 32-node test cluster; a 0.7 load
    # keeps the periodic DFRS algorithms fast while still exercising
    # preemptions and migrations.
    return scale_to_load(raw, 0.7)


def _results_identical(a, b):
    assert a.jobs == b.jobs
    assert a.makespan == b.makespan
    assert a.idle_node_seconds == b.idle_node_seconds
    assert a.costs.preemption_count == b.costs.preemption_count
    assert a.costs.migration_count == b.costs.migration_count
    assert a.costs.preemption_gb == b.costs.preemption_gb
    assert a.costs.migration_gb == b.costs.migration_gb
    assert a.scheduler_job_counts == b.scheduler_job_counts


@pytest.mark.parametrize("driver", ["run", "run_stream"])
def test_peak_resident_jobs_is_bounded(driver):
    workload = _workload(num_jobs=300)
    simulator = Simulator(CLUSTER, create_scheduler("easy"), CONFIG)
    if driver == "run":
        simulator.run(workload.jobs)
    else:
        simulator.run_stream(iter(workload.jobs))
    # Lazy admission + completion eviction: resident state tracks the number
    # of concurrently active jobs, not the trace length.
    assert simulator.peak_resident_jobs < 300


def test_streaming_rejects_empty_stream():
    simulator = Simulator(CLUSTER, create_scheduler("easy"), CONFIG)
    with pytest.raises(SimulationError, match="empty"):
        simulator.run_stream(iter([]))


def test_streaming_rejects_out_of_order_specs():
    specs = [
        JobSpec(0, 100.0, 1, 0.5, 0.1, 50.0),
        JobSpec(1, 10.0, 1, 0.5, 0.1, 50.0),
    ]
    simulator = Simulator(CLUSTER, create_scheduler("easy"), CONFIG)
    with pytest.raises(SimulationError, match="arrival-ordered"):
        simulator.run_stream(iter(specs))


def test_streaming_rejects_duplicate_ids():
    specs = [
        JobSpec(0, 0.0, 1, 0.5, 0.1, 50.0),
        JobSpec(0, 1.0, 1, 0.5, 0.1, 50.0),
    ]
    simulator = Simulator(CLUSTER, create_scheduler("easy"), CONFIG)
    with pytest.raises(SimulationError, match="duplicate"):
        simulator.run_stream(iter(specs))


def test_streaming_handles_simultaneous_submissions():
    # Same-timestamp submissions exercise the one-ahead admission refill.
    specs = [JobSpec(i, 0.0 if i < 4 else 100.0, 1, 0.5, 0.1, 60.0) for i in range(8)]
    materialized = Simulator(CLUSTER, create_scheduler("easy"), CONFIG).run(specs)
    streaming = Simulator(CLUSTER, create_scheduler("easy"), CONFIG)
    result = streaming.run_stream(iter(specs))
    _results_identical(materialized, result)
