"""Tests for the long-job throttling extension (paper future work)."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.job import JobState, MINIMUM_YIELD
from repro.exceptions import ConfigurationError
from repro.campaign.executor import run_algorithm
from repro.schedulers.dfrs.fairness import LongJobThrottlingScheduler
from repro.schedulers.registry import create_scheduler
from repro.traces import LublinWorkloadGenerator, scale_to_load

from .conftest import context, view


class TestLongJobThrottling:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            LongJobThrottlingScheduler(long_job_virtual_time=0.0)
        with pytest.raises(ConfigurationError):
            LongJobThrottlingScheduler(long_job_yield_cap=0.0)
        with pytest.raises(ConfigurationError):
            LongJobThrottlingScheduler(long_job_yield_cap=1.5)

    def test_registry_and_name(self):
        scheduler = create_scheduler("dynmcb8-asap-throttled-per-600")
        assert isinstance(scheduler, LongJobThrottlingScheduler)
        assert scheduler.name == "dynmcb8-asap-throttled-per-600"

    def test_long_job_capped_short_job_boosted(self):
        scheduler = LongJobThrottlingScheduler(
            600, long_job_virtual_time=3600.0, long_job_yield_cap=0.4
        )
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [
                # Long runner: two days of virtual time.
                view(0, cpu=1.0, mem=0.2, vt=2 * 86400.0,
                     state=JobState.RUNNING, assignment=(0,), current_yield=1.0),
                # Fresh short job.
                view(1, cpu=1.0, mem=0.2, vt=0.0, submit=3 * 86400.0),
            ],
            cluster=cluster,
            time=3 * 86400.0,
        )
        decision = scheduler.schedule(ctx)
        assert decision.running[0].yield_value <= 0.4 + 1e-9
        assert decision.running[1].yield_value == pytest.approx(1.0)

    def test_short_jobs_unaffected_below_threshold(self):
        scheduler = LongJobThrottlingScheduler(600, long_job_virtual_time=1e9)
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [view(i, cpu=0.5, mem=0.1, vt=100.0) for i in range(3)],
            cluster=cluster,
            time=200.0,
        )
        decision = scheduler.schedule(ctx)
        for alloc in decision.running.values():
            assert alloc.yield_value == pytest.approx(1.0)

    def test_capped_yield_never_below_minimum(self):
        scheduler = LongJobThrottlingScheduler(
            600, long_job_virtual_time=1.0, long_job_yield_cap=MINIMUM_YIELD
        )
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [view(0, cpu=1.0, mem=0.2, vt=100.0,
                  state=JobState.RUNNING, assignment=(0,), current_yield=1.0)],
            cluster=cluster,
            time=200.0,
        )
        decision = scheduler.schedule(ctx)
        assert decision.running[0].yield_value >= MINIMUM_YIELD

    def test_end_to_end_all_jobs_complete(self):
        cluster = Cluster(8)
        workload = scale_to_load(
            LublinWorkloadGenerator(cluster).generate(25, seed=17), 0.8
        )
        result = run_algorithm(
            workload, "dynmcb8-asap-throttled-per-600", penalty_seconds=300.0
        )
        assert result.num_jobs == workload.num_jobs
        assert (result.stretches() >= 1.0 - 1e-9).all()
