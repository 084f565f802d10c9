"""Satellite regression: ``run_algorithm`` forwards a full SimulationConfig.

The seed implementation hardcoded the engine configuration inside
``run_algorithm``, so per-scenario engine options
(``record_scheduler_times``) could never reach single-run paths.  These tests
pin the forwarding through ``run_algorithm`` and ``run_instance``, and
through campaign scenarios (the pooled grid).
"""

from __future__ import annotations

import pytest

from repro.campaign.executor import (
    Campaign,
    resolve_simulation_config,
    run_algorithm,
    run_instance,
)
from repro.campaign.scenario import LublinSource, Scenario
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.core.penalties import ReschedulingPenaltyModel
from repro.traces.lublin import LublinWorkloadGenerator

CLUSTER = Cluster(16, 4, 8.0)


@pytest.fixture(scope="module")
def workload():
    return LublinWorkloadGenerator(CLUSTER).generate(20, seed=3, name="t")


class TestResolveSimulationConfig:
    def test_default_builds_penalty_model(self):
        config = resolve_simulation_config(300.0)
        assert config.penalty_model == ReschedulingPenaltyModel(300.0)
        assert config.record_scheduler_times

    def test_explicit_config_wins_wholesale(self):
        explicit = SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(42.0),
            record_scheduler_times=False,
        )
        assert resolve_simulation_config(300.0, explicit) is explicit


class TestForwarding:
    def test_record_scheduler_times_toggle_forwarded(self, workload):
        config = SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(0.0),
            record_scheduler_times=False,
        )
        result = run_algorithm(workload, "dynmcb8", simulation_config=config)
        assert list(result.scheduler_times) == []
        with_times = run_algorithm(workload, "dynmcb8", penalty_seconds=0.0)
        assert len(with_times.scheduler_times) > 0

    def test_run_instance_forwards(self, workload):
        config = SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(0.0),
            record_scheduler_times=False,
        )
        instance = run_instance(workload, ("dynmcb8",), simulation_config=config)
        assert list(instance.results["dynmcb8"].scheduler_times) == []

    def test_run_instance_forwards_to_every_algorithm(self, workload):
        config = SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(0.0),
            record_scheduler_times=False,
        )
        instance = run_instance(
            workload, ("dynmcb8", "greedy"), simulation_config=config
        )
        for result in instance.results.values():
            assert list(result.scheduler_times) == []


class TestScenarioEngineOptions:
    def test_scenario_can_disable_scheduler_times(self):
        scenario = Scenario(
            name="no-times",
            source=LublinSource(num_traces=1, num_jobs=20, seed_base=5),
            cluster=CLUSTER,
            algorithms=("dynmcb8",),
            record_scheduler_times=False,
            collectors=("timing",),
        )
        outcome = Campaign().run(scenario)
        assert outcome.rows[0].metric("scheduler_times") == []
