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


DIURNAL = DiurnalPoissonTraceSource(
    num_jobs=150,
    seed=11,
    mean_interarrival_seconds=90.0,
    runtime_log_mean=5.0,
    runtime_log_sigma=1.0,
    max_runtime_seconds=7200.0,
    serial_fraction=0.6,
)


def _observed_run(streaming, *collectors):
    """One diurnal run with every collector's observers attached; returns
    the result and each collector's observers, in order."""
    observers = [collector.observers(streaming) for collector in collectors]
    engine = Simulator(
        CLUSTER,
        create_scheduler("greedy-pmtn-migr"),
        SimulationConfig(streaming_metrics=streaming),
        observers=[obs for by_name in observers for obs in by_name.values()],
    )
    jobs = DIURNAL.jobs(CLUSTER)
    result = engine.run_stream(jobs) if streaming else engine.run(list(jobs))
    return result, observers


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

    def test_streaming_matches_materialized(self):
        collector = SloCollector(slo_factor=5.0)
        materialized_run, _ = _observed_run(False, collector)
        streaming_run, _ = _observed_run(True, collector)
        exact = collector.collect(materialized_run, {}, None)
        partials = collector.stream_partials(streaming_run, {})
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
    def test_streaming_matches_materialized_exactly(self):
        collector = GoodputCollector(window_seconds=WINDOW)
        materialized_run, (observers,) = _observed_run(False, collector)
        exact = collector.collect(materialized_run, observers, None)
        streaming_run, (observers,) = _observed_run(True, collector)
        row = collector.stream_finalize(
            collector.stream_partials(streaming_run, observers)
        )
        assert exact["goodput_windows"] > 1
        for column, value in exact.items():
            if column in ("mean_window_jobs_per_hour", "mean_window_goodput"):
                # Welford moments vs np.mean: equal up to rounding.
                assert row[column] == pytest.approx(value, rel=1e-12), column
            else:
                assert row[column] == value, column

    def test_materialized_windows_match_the_per_job_records(self):
        collector = GoodputCollector(window_seconds=WINDOW)
        result, (observers,) = _observed_run(False, collector)
        origin = min(record.spec.submit_time for record in result.jobs)
        completions = {}
        for record in result.jobs:
            index = int((record.completion_time - origin) // WINDOW)
            completions[index] = completions.get(index, 0) + 1
        row = collector.collect(result, observers, None)
        assert row["goodput_windows"] == max(completions) + 1
        per_hour = [
            completions.get(i, 0) * 3600.0 / WINDOW
            for i in range(max(completions) + 1)
        ]
        assert row["min_window_jobs_per_hour"] == min(per_hour)
        assert row["max_window_jobs_per_hour"] == max(per_hour)
        assert row["jobs_per_hour"] == len(result.jobs) / (result.makespan / 3600.0)

    def test_goodput_accounts_only_completed_work(self):
        collector = GoodputCollector(window_seconds=WINDOW)
        result, (observers,) = _observed_run(False, collector)
        row = collector.collect(result, observers, None)
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
