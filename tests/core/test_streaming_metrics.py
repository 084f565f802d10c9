"""Engine streaming-metrics mode: online summaries instead of job records."""

from __future__ import annotations

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.exceptions import ReproError
from repro.metrics import DEFAULT_RELATIVE_ERROR
from repro.schedulers.registry import create_scheduler
from repro.traces import DiurnalPoissonTraceSource

CLUSTER = Cluster(32, 4, 8.0)

NUM_JOBS = 1500


def _source(num_jobs: int = NUM_JOBS, seed: int = 3) -> DiurnalPoissonTraceSource:
    # Sub-critical load so the active-job population stays small and the
    # suite stays fast; stretches still spread over several decades.
    return DiurnalPoissonTraceSource(
        num_jobs=num_jobs,
        seed=seed,
        mean_interarrival_seconds=360.0,
        runtime_log_mean=5.0,
        runtime_log_sigma=1.2,
        max_runtime_seconds=14400.0,
        serial_fraction=0.6,
    )


def _run(algorithm: str = "fcfs", *, streaming: bool, num_jobs: int = NUM_JOBS):
    config = SimulationConfig(streaming_metrics=streaming)
    simulator = Simulator(CLUSTER, create_scheduler(algorithm), config)
    result = simulator.run_stream(_source(num_jobs).jobs(CLUSTER))
    return simulator, result


@pytest.fixture(scope="module")
def materialized_run():
    return _run(streaming=False)


@pytest.fixture(scope="module")
def streamed_run():
    return _run(streaming=True)


class TestStreamingResult:
    def test_headline_statistics_match_materialized(self, materialized_run, streamed_run):
        _, materialized = materialized_run
        _, streamed = streamed_run

        assert streamed.is_streaming and not materialized.is_streaming
        assert streamed.jobs == []
        assert streamed.num_jobs == materialized.num_jobs == NUM_JOBS
        # max/min are tracked exactly; means via Welford within rounding.
        assert streamed.max_stretch == materialized.max_stretch
        assert streamed.mean_stretch == pytest.approx(
            materialized.mean_stretch, rel=1e-9
        )
        assert streamed.mean_turnaround == pytest.approx(
            materialized.mean_turnaround, rel=1e-9
        )
        assert streamed.makespan == materialized.makespan
        assert streamed.costs.preemption_count == materialized.costs.preemption_count

    def test_quantiles_within_documented_bound(self, materialized_run, streamed_run):
        _, materialized = materialized_run
        _, streamed = streamed_run
        alpha = streamed.job_stats.stretch_sketch.relative_error
        for q in (0.5, 0.9, 0.99):
            exact = materialized.stretch_quantile(q)
            estimate = streamed.stretch_quantile(q)
            assert abs(estimate - exact) <= alpha * exact + 1e-12

    def test_result_memory_is_bounded(self, streamed_run):
        # The whole point: no per-job records, no per-event timing vectors.
        simulator, streamed = streamed_run
        assert streamed.jobs == []
        assert streamed.scheduler_times == []
        assert streamed.scheduler_time_stats is not None
        assert streamed.scheduler_time_stats.count > 0
        assert simulator.peak_resident_jobs < NUM_JOBS

    def test_scheduler_timing_reductions(self, streamed_run):
        _, streamed = streamed_run
        assert streamed.mean_scheduler_time() > 0.0
        assert streamed.max_scheduler_time() >= streamed.mean_scheduler_time()
        assert streamed.scheduler_job_count_stats.maximum >= 1

    def test_stretches_raise_in_streaming_mode(self, streamed_run):
        _, streamed = streamed_run
        with pytest.raises(ReproError, match="streaming-metrics"):
            streamed.stretches()

    def test_materialized_intake_also_streams_metrics(self):
        # streaming_metrics is orthogonal to the intake mode: run() with a
        # materialized list reduces records the same way.
        specs = list(_source(400).jobs(CLUSTER))
        config = SimulationConfig(streaming_metrics=True)
        simulator = Simulator(CLUSTER, create_scheduler("fcfs"), config)
        result = simulator.run(specs)
        reference = Simulator(CLUSTER, create_scheduler("fcfs")).run(specs)
        assert result.num_jobs == reference.num_jobs == 400
        assert result.max_stretch == reference.max_stretch

    def test_summary_dictionary_works(self):
        _, streamed = _run(streaming=True, num_jobs=400)
        summary = streamed.summary()
        assert summary["algorithm_max_stretch"] == streamed.max_stretch
        assert math.isfinite(summary["mean_turnaround"])

    def test_sketches_run_at_the_default_relative_error(self):
        config = SimulationConfig(streaming_metrics=True)
        simulator = Simulator(CLUSTER, create_scheduler("fcfs"), config)
        result = simulator.run_stream(_source(300).jobs(CLUSTER))
        assert result.job_stats.stretch_sketch.relative_error == DEFAULT_RELATIVE_ERROR
        assert result.job_stats.turnaround_sketch.relative_error == DEFAULT_RELATIVE_ERROR

    def test_default_mode_unchanged(self, materialized_run):
        _, materialized = materialized_run
        assert materialized.job_stats is None
        assert materialized.scheduler_time_stats is None
        assert len(materialized.jobs) == NUM_JOBS
        assert len(materialized.scheduler_times) > 0
