"""Unit tests for the idealised gang scheduling baseline."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.job import JobState
from repro.exceptions import ConfigurationError
from repro.campaign.executor import run_algorithm
from repro.schedulers.batch.gang import GangScheduler
from repro.schedulers.registry import create_scheduler
from repro.traces.lublin import LublinWorkloadGenerator

from .conftest import context, view


class TestGangScheduler:
    def test_invalid_rows(self):
        with pytest.raises(ConfigurationError):
            GangScheduler(max_rows=0)

    def test_registry_names(self):
        assert isinstance(create_scheduler("gang"), GangScheduler)
        assert create_scheduler("gang-3").max_rows == 3

    def test_single_job_runs_at_full_speed(self):
        scheduler = GangScheduler()
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        decision = scheduler.schedule(
            context([view(0, tasks=2, cpu=1.0, mem=0.2)], cluster=cluster)
        )
        assert decision.running[0].yield_value == pytest.approx(1.0)
        assert len(set(decision.running[0].nodes)) == 2

    def test_two_gangs_share_time_slices(self):
        scheduler = GangScheduler()
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        decision = scheduler.schedule(
            context(
                [view(0, tasks=2, cpu=1.0, mem=0.2), view(1, tasks=2, cpu=1.0, mem=0.2)],
                cluster=cluster,
            )
        )
        assert decision.running[0].yield_value == pytest.approx(0.5)
        assert decision.running[1].yield_value == pytest.approx(0.5)

    def test_sequential_task_not_penalised_by_sharing(self):
        """A 25%-need task still gets its full need out of a 50% time slice."""
        scheduler = GangScheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        decision = scheduler.schedule(
            context(
                [view(0, tasks=1, cpu=0.25, mem=0.2), view(1, tasks=1, cpu=0.25, mem=0.2)],
                cluster=cluster,
            )
        )
        assert decision.running[0].yield_value == pytest.approx(1.0)
        assert decision.running[1].yield_value == pytest.approx(1.0)

    def test_multiprogramming_level_bounds_admission(self):
        scheduler = GangScheduler(max_rows=1)
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        decision = scheduler.schedule(
            context(
                [view(0, tasks=2, cpu=1.0, mem=0.1), view(1, tasks=1, cpu=1.0, mem=0.1)],
                cluster=cluster,
            )
        )
        # With a multiprogramming level of 1, gang degenerates to batch.
        assert 0 in decision.running
        assert 1 not in decision.running

    def test_memory_constraint_blocks_corescheduling(self):
        scheduler = GangScheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        running = view(0, tasks=1, cpu=1.0, mem=0.8, state=JobState.RUNNING,
                       assignment=(0,), current_yield=1.0)
        decision = scheduler.schedule(
            context([running, view(1, tasks=1, cpu=1.0, mem=0.5)], cluster=cluster)
        )
        assert 1 not in decision.running

    def test_end_to_end_on_synthetic_workload(self):
        cluster = Cluster(8)
        workload = LublinWorkloadGenerator(cluster).generate(20, seed=3)
        result = run_algorithm(workload, "gang", penalty_seconds=0.0)
        assert result.num_jobs == workload.num_jobs
        assert result.costs.preemption_count == 0
        assert (result.stretches() >= 1.0 - 1e-9).all()
