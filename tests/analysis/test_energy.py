"""Tests for the energy accounting module."""

from __future__ import annotations

import pytest

from repro.analysis import (
    NodePowerModel,
    energy_from_recorder,
    energy_from_result,
)
from repro.analysis.energy import _report
from repro.core import (
    Cluster,
    JobSpec,
    SimulationConfig,
    Simulator,
    UtilizationRecorder,
)
from repro.exceptions import ConfigurationError, ReproError
from repro.schedulers import create_scheduler


def _run(num_jobs=4, nodes=8, algorithm="greedy-pmtn"):
    cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
    recorder = UtilizationRecorder()
    specs = [JobSpec(i, i * 5.0, 1, 0.5, 0.2, 100.0) for i in range(num_jobs)]
    result = Simulator(
        cluster, create_scheduler(algorithm), SimulationConfig(), observers=[recorder]
    ).run(specs)
    return result, recorder, cluster


class TestNodePowerModel:
    def test_defaults_are_valid(self):
        model = NodePowerModel()
        assert model.busy_watts > model.idle_watts > model.off_watts

    def test_zero_busy_power_rejected(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(busy_watts=0.0)

    def test_idle_above_busy_rejected(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(busy_watts=100.0, idle_watts=200.0)

    def test_off_above_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(idle_watts=50.0, off_watts=60.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(idle_watts=-1.0)


class TestEnergyReports:
    def test_power_down_never_exceeds_always_on(self):
        result, recorder, cluster = _run()
        report = energy_from_recorder(recorder, cluster, algorithm=result.algorithm)
        assert report.power_down_joules <= report.always_on_joules
        assert 0.0 <= report.savings_fraction <= 1.0

    def test_result_based_report_matches_cluster_accounting(self):
        result, _, cluster = _run()
        report = energy_from_result(result)
        total = report.busy_node_seconds + report.idle_node_seconds
        assert total == pytest.approx(cluster.num_nodes * result.makespan, rel=1e-9)

    def test_busy_seconds_positive_when_jobs_ran(self):
        result, recorder, cluster = _run()
        report = energy_from_recorder(recorder, cluster, algorithm=result.algorithm)
        assert report.busy_node_seconds > 0.0

    def test_savings_larger_on_underloaded_cluster(self):
        # With many idle nodes the power-down savings must be substantial.
        result, recorder, cluster = _run(num_jobs=1, nodes=16)
        report = energy_from_recorder(recorder, cluster, algorithm=result.algorithm)
        assert report.savings_fraction > 0.3

    def test_kwh_conversion(self):
        result, _, _ = _run()
        report = energy_from_result(result)
        assert report.always_on_kwh == pytest.approx(report.always_on_joules / 3.6e6)

    def test_custom_power_model_changes_totals(self):
        result, recorder, cluster = _run()
        cheap = NodePowerModel(busy_watts=100.0, idle_watts=10.0, off_watts=0.0)
        default_report = energy_from_recorder(recorder, cluster)
        cheap_report = energy_from_recorder(recorder, cluster, model=cheap)
        assert cheap_report.always_on_joules < default_report.always_on_joules

    def test_as_dict_has_expected_keys(self):
        result, _, _ = _run()
        data = energy_from_result(result).as_dict()
        for key in ("always_on_kwh", "power_down_kwh", "savings_fraction"):
            assert key in data

    def test_recorder_and_result_reports_are_consistent(self):
        # Both accounting paths measure the same physical quantity; they use
        # different clocks (trace end vs makespan) so allow a loose tolerance.
        result, recorder, cluster = _run(num_jobs=6, nodes=4)
        from_recorder = energy_from_recorder(recorder, cluster)
        from_result = energy_from_result(result)
        assert from_recorder.busy_node_seconds == pytest.approx(
            from_result.busy_node_seconds, rel=0.2, abs=200.0
        )


class TestPowerModelBoundaries:
    def test_equal_states_accepted(self):
        model = NodePowerModel(busy_watts=100.0, idle_watts=100.0, off_watts=100.0)
        assert model.off_watts == model.busy_watts

    def test_negative_off_power_rejected(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(off_watts=-1.0)


class TestEnergyArithmetic:
    """The shared ``_report`` arithmetic, on hand-computed totals."""

    MODEL = NodePowerModel(busy_watts=300.0, idle_watts=100.0, off_watts=10.0)

    def test_joules_from_busy_and_idle_node_seconds(self):
        report = _report("x", 100.0, 1000.0, 400.0, self.MODEL)
        assert report.idle_node_seconds == pytest.approx(600.0)
        assert report.always_on_joules == pytest.approx(400 * 300 + 600 * 100)
        assert report.power_down_joules == pytest.approx(400 * 300 + 600 * 10)
        assert report.savings_joules == pytest.approx(600 * 90)
        assert report.savings_fraction == pytest.approx(54000 / 180000)

    def test_busy_seconds_capped_at_the_node_seconds(self):
        report = _report("x", 10.0, 80.0, 95.0, self.MODEL)
        assert report.busy_node_seconds == pytest.approx(80.0)
        assert report.idle_node_seconds == 0.0
        assert report.savings_fraction == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ReproError):
            _report("x", -1.0, 0.0, 0.0, self.MODEL)

    def test_empty_run_saves_nothing(self):
        report = _report("x", 0.0, 0.0, 0.0, self.MODEL)
        assert report.always_on_joules == 0.0
        assert report.savings_fraction == 0.0

    def test_as_dict_values(self):
        report = _report("x", 3600.0, 7200.0, 3600.0, self.MODEL)
        assert report.as_dict() == pytest.approx(
            {
                "duration_seconds": 3600.0,
                "busy_node_seconds": 3600.0,
                "idle_node_seconds": 3600.0,
                "always_on_kwh": 0.4,
                "power_down_kwh": 0.31,
                "savings_fraction": 0.09 / 0.4,
            }
        )

    def test_result_report_uses_the_makespan_and_algorithm(self):
        result, _, _ = _run()
        report = energy_from_result(result)
        assert report.algorithm == result.algorithm
        assert report.duration_seconds == result.makespan
