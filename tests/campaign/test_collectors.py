"""Tests for the metric collectors and the recorder registry behind them."""

from __future__ import annotations

import pytest

from repro.campaign.collectors import (
    available_collectors,
    create_collector,
    register_collector,
    MetricCollector,
)
from repro.core.engine import SimulationConfig, Simulator
from repro.core.observers import (
    UtilizationRecorder,
    available_recorders,
    create_recorder,
    register_recorder,
)
from repro.core.penalties import ReschedulingPenaltyModel
from repro.exceptions import ConfigurationError
from repro.schedulers.registry import create_scheduler
from repro.traces.lublin import LublinWorkloadGenerator
from repro.core.cluster import Cluster


@pytest.fixture(scope="module")
def finished_run():
    cluster = Cluster(16, 4, 8.0)
    workload = LublinWorkloadGenerator(cluster).generate(25, seed=3, name="t")
    recorder = UtilizationRecorder()
    simulator = Simulator(
        cluster,
        create_scheduler("greedy-pmtn"),
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(300.0)),
        observers=[recorder],
    )
    result = simulator.run(workload.jobs)
    return workload, result, recorder


class TestRecorderRegistry:
    def test_known_recorders(self):
        assert set(available_recorders()) >= {
            "event-log",
            "allocation-trace",
            "utilization",
        }

    def test_create_recorder(self):
        assert isinstance(create_recorder("utilization"), UtilizationRecorder)

    def test_unknown_recorder_rejected(self):
        with pytest.raises(ConfigurationError):
            create_recorder("nonexistent")

    def test_reregistering_same_factory_rejected(self):
        # One strict duplicate-name rule for every registry (tests/test_registry.py).
        with pytest.raises(ConfigurationError, match="already registered"):
            register_recorder("utilization", UtilizationRecorder)

    def test_name_collision_rejected(self):
        with pytest.raises(ConfigurationError):
            register_recorder("utilization", lambda: UtilizationRecorder())


class TestCollectorRegistry:
    def test_known_collectors(self):
        assert set(available_collectors()) >= {
            "stretch",
            "costs",
            "timing",
            "fairness",
            "utilization",
        }

    def test_unknown_collector_rejected(self):
        with pytest.raises(ConfigurationError):
            create_collector("nonexistent")

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigurationError):
            create_collector("utilization", bogus_watts=1.0)

    def test_registration_collision_rejected(self):
        class Custom(MetricCollector):
            name = "stretch"

        with pytest.raises(ConfigurationError):
            register_collector("stretch", Custom)


class TestCollectedMetrics:
    def test_stretch_metrics_match_result(self, finished_run):
        workload, result, _ = finished_run
        metrics = create_collector("stretch").collect(result, {}, workload)
        assert metrics["max_stretch"] == result.max_stretch
        assert metrics["mean_stretch"] == result.mean_stretch
        assert metrics["num_jobs"] == workload.num_jobs

    def test_cost_metrics_match_result(self, finished_run):
        workload, result, _ = finished_run
        metrics = create_collector("costs").collect(result, {}, workload)
        assert metrics["pmtn_per_job"] == result.preemptions_per_job()
        assert metrics["migr_per_hour"] == result.migrations_per_hour()

    def test_timing_metrics_are_raw_vectors(self, finished_run):
        workload, result, _ = finished_run
        metrics = create_collector("timing").collect(result, {}, workload)
        assert metrics["scheduler_times"] == [float(t) for t in result.scheduler_times]
        assert len(metrics["interarrivals"]) == workload.num_jobs - 1

    def test_fairness_metrics_valid(self, finished_run):
        workload, result, _ = finished_run
        metrics = create_collector("fairness").collect(result, {}, workload)
        assert 0.0 < metrics["jain_stretch"] <= 1.0
        assert 0.0 <= metrics["gini_stretch"] < 1.0

    def test_utilization_metrics_match_legacy_path(self, finished_run):
        from repro.analysis.energy import NodePowerModel, energy_from_recorder
        from repro.analysis.timeseries import busy_nodes_series

        workload, result, recorder = finished_run
        collector = create_collector("utilization", busy_watts=250.0)
        metrics = collector.collect(result, {"utilization": recorder}, workload)
        busy = busy_nodes_series(recorder)
        assert metrics["mean_busy_nodes"] == busy.mean()
        assert metrics["peak_busy_nodes"] == recorder.peak_busy_nodes()
        expected = energy_from_recorder(
            recorder,
            workload.cluster,
            algorithm=result.algorithm,
            model=NodePowerModel(busy_watts=250.0),
        )
        assert metrics["energy_always_on_joules"] == expected.always_on_joules
        assert metrics["energy_savings_fraction"] == expected.savings_fraction
