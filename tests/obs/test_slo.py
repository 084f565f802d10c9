"""Tests for the SLO and goodput campaign collectors (repro.obs.slo)."""

from __future__ import annotations

import pytest

from repro.campaign.collectors import available_collectors, create_collector
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.exceptions import ConfigurationError
from repro.obs.slo import DEFAULT_SLO_FACTOR, GoodputCollector, SloCollector
from repro.schedulers.registry import create_scheduler
from repro.traces import DiurnalPoissonTraceSource
from repro.traces.lublin import LublinWorkloadGenerator

CLUSTER = Cluster(16, 4, 8.0)
WINDOW = 3600.0


@pytest.fixture(scope="module")
def finished_run():
    workload = LublinWorkloadGenerator(CLUSTER).generate(40, seed=5, name="t")
    simulator = Simulator(
        CLUSTER, create_scheduler("greedy-pmtn"), SimulationConfig()
    )
    result = simulator.run(workload.jobs)
    return workload, result


@pytest.fixture(scope="module")
def streaming_run():
    trace = DiurnalPoissonTraceSource(
        num_jobs=150,
        seed=11,
        mean_interarrival_seconds=90.0,
        runtime_log_mean=5.0,
        runtime_log_sigma=1.0,
        max_runtime_seconds=7200.0,
        serial_fraction=0.6,
    )
    config = SimulationConfig(
        streaming_metrics=True, availability_window_seconds=WINDOW
    )
    engine = Simulator(CLUSTER, create_scheduler("greedy-pmtn-migr"), config)
    return engine.run_stream(trace.jobs(CLUSTER))


@pytest.fixture(scope="module")
def materialized_run():
    trace = DiurnalPoissonTraceSource(
        num_jobs=150,
        seed=11,
        mean_interarrival_seconds=90.0,
        runtime_log_mean=5.0,
        runtime_log_sigma=1.0,
        max_runtime_seconds=7200.0,
        serial_fraction=0.6,
    )
    engine = Simulator(
        CLUSTER, create_scheduler("greedy-pmtn-migr"), SimulationConfig()
    )
    return engine.run(list(trace.jobs(CLUSTER)))


class TestRegistry:
    def test_collectors_registered(self):
        assert {"slo", "goodput"} <= set(available_collectors())

    def test_create_with_options(self):
        collector = create_collector("slo", slo_factor=5.0)
        assert isinstance(collector, SloCollector)
        assert collector.slo_factor == 5.0
        goodput = create_collector("goodput", window_seconds=600.0)
        assert isinstance(goodput, GoodputCollector)
        assert goodput.window_seconds == 600.0

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigurationError):
            SloCollector(slo_factor=0.0)
        with pytest.raises(ConfigurationError):
            SloCollector(slo_factor=float("inf"))
        with pytest.raises(ConfigurationError):
            GoodputCollector(window_seconds=-1.0)


class TestSloCollector:
    def test_exact_attainment_matches_per_job_predicate(self, finished_run):
        workload, result = finished_run
        row = SloCollector(slo_factor=3.0).collect(result, {}, workload)
        expected = sum(
            1
            for record in result.jobs
            if record.turnaround_time <= 3.0 * record.spec.execution_time
        )
        assert row["slo_attained"] == expected
        assert row["slo_total"] == len(result.jobs)
        assert row["slo_attainment"] == expected / len(result.jobs)
        assert row["slo_factor"] == 3.0
        assert row["jct_p50"] <= row["jct_p90"] <= row["jct_p99"]
        assert row["jct_max"] >= row["jct_p99"]

    def test_generous_factor_attains_everything(self, finished_run):
        workload, result = finished_run
        row = SloCollector(slo_factor=1e9).collect(result, {}, workload)
        assert row["slo_attainment"] == 1.0

    def test_default_factor(self):
        assert SloCollector().slo_factor == DEFAULT_SLO_FACTOR

    def test_streaming_matches_materialized(
        self, streaming_run, materialized_run
    ):
        collector = SloCollector(slo_factor=5.0)
        exact = collector.collect(materialized_run, {}, None)
        partials = collector.stream_partials(streaming_run)
        row = collector.stream_finalize(partials)
        assert row["slo_total"] == exact["slo_total"]
        # The sketch boundary and the 30 s bounded-stretch floor are the two
        # documented approximations; attained counts stay within a few jobs.
        assert abs(row["slo_attained"] - exact["slo_attained"]) <= max(
            3, 0.05 * exact["slo_total"]
        )
        assert row["jct_mean"] == pytest.approx(exact["jct_mean"], rel=1e-9)
        assert row["jct_max"] == pytest.approx(exact["jct_max"], rel=1e-9)
        assert row["jct_p50"] == pytest.approx(exact["jct_p50"], rel=0.05)
        assert row["jct_p90"] == pytest.approx(exact["jct_p90"], rel=0.05)


class TestGoodputCollector:
    def test_streaming_matches_materialized_exactly(
        self, streaming_run, materialized_run
    ):
        collector = GoodputCollector(window_seconds=WINDOW)
        exact = collector.collect(materialized_run, {}, None)
        partials = collector.stream_partials(streaming_run)
        row = collector.stream_finalize(partials)
        for column, value in exact.items():
            assert row[column] == pytest.approx(value, rel=1e-9), column

    def test_goodput_accounts_only_completed_work(self, finished_run):
        workload, result = finished_run
        row = GoodputCollector(window_seconds=WINDOW).collect(
            result, {}, workload
        )
        expected = sum(
            record.spec.num_tasks
            * record.spec.cpu_need
            * record.spec.execution_time
            for record in result.jobs
        )
        assert row["goodput_node_seconds"] == pytest.approx(expected)
        assert 0.0 < row["goodput_fraction"] <= 1.0
        assert row["goodput_windows"] >= 1
        assert (
            row["min_window_jobs_per_hour"]
            <= row["mean_window_jobs_per_hour"]
            <= row["max_window_jobs_per_hour"]
        )

    def test_streaming_without_engine_windows_rejected(self, finished_run):
        _, result = finished_run
        with pytest.raises(ConfigurationError):
            GoodputCollector().stream_partials(result)
