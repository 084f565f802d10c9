"""Tests for the metric collectors and the observers they bring to a run."""

from __future__ import annotations

import pytest

from repro.campaign.collectors import (
    BusyNodeObserver,
    available_collectors,
    create_collector,
    register_collector,
    MetricCollector,
)
from repro.core.engine import SimulationConfig, Simulator
from repro.core.invariants import InvariantCheckingObserver
from repro.core.observers import AvailabilityRecorder, UtilizationRecorder
from repro.obs.slo import CompletionWindows
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


class TestCollectorObservers:
    def test_observers_by_collector_and_mode(self):
        expected = {
            ("utilization", False): {"utilization": UtilizationRecorder},
            ("utilization", True): {"busy": BusyNodeObserver},
            ("availability", False): {"availability": AvailabilityRecorder},
            ("availability", True): {"availability": AvailabilityRecorder},
            ("goodput", False): {"windows": CompletionWindows},
            ("goodput", True): {"windows": CompletionWindows},
            ("invariants", False): {"invariants": InvariantCheckingObserver},
            ("invariants", True): {"invariants": InvariantCheckingObserver},
        }
        for (name, streaming), types in expected.items():
            observers = create_collector(name).observers(streaming)
            assert {key: type(obs) for key, obs in observers.items()} == types

    def test_result_only_collectors_attach_nothing(self):
        for name in ("stretch", "costs", "timing", "fairness", "slo"):
            collector = create_collector(name)
            assert collector.observers(False) == {}
            assert collector.observers(True) == {}

    def test_observers_are_fresh_per_call(self):
        collector = create_collector("utilization")
        assert (
            collector.observers(False)["utilization"]
            is not collector.observers(False)["utilization"]
        )

    def test_observers_carry_collector_options(self):
        windows = create_collector("goodput", window_seconds=600.0).observers(True)
        assert windows["windows"].width == 600.0

    def test_busy_node_observer_matches_the_recorder(self, finished_run):
        workload, result, recorder = finished_run
        from repro.analysis.timeseries import busy_nodes_series

        observer = BusyNodeObserver()
        Simulator(
            workload.cluster,
            create_scheduler("greedy-pmtn"),
            SimulationConfig(penalty_model=ReschedulingPenaltyModel(300.0)),
            observers=[observer],
        ).run(workload.jobs)
        busy = busy_nodes_series(recorder)
        assert observer.stats.mean == pytest.approx(busy.mean(), rel=1e-12)
        assert observer.stats.maximum == recorder.peak_busy_nodes()
        assert observer.stats.duration == pytest.approx(result.makespan)

    def test_observers_restart_with_each_run(self, finished_run):
        workload = finished_run[0]
        busy, windows = BusyNodeObserver(), CompletionWindows(600.0)
        seen = []
        for _ in range(2):
            Simulator(
                workload.cluster,
                create_scheduler("greedy-pmtn"),
                observers=[busy, windows],
            ).run(workload.jobs)
            seen.append((busy.stats.integral, busy.stats.n, dict(windows.windows)))
        assert seen[0] == seen[1]
        assert sum(count for count, _ in seen[0][2].values()) == workload.num_jobs


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
