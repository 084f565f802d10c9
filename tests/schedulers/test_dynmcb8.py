"""Unit tests for the DYNMCB8 family of schedulers."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobSpec, JobState, MINIMUM_YIELD
from repro.packing import PACKER_NAMES, PackingJob, get_packer
from repro.packing.mcb8 import mcb8_pack_jobs
from repro.platform import TraceNodeEventSource
from repro.schedulers.registry import create_scheduler
from repro.serve import PlacementLogObserver
from repro.schedulers.dfrs.dynmcb8 import DynMcb8Scheduler
from repro.schedulers.dfrs.periodic import (
    DynMcb8AsapPeriodicScheduler,
    DynMcb8PeriodicScheduler,
)
from repro.schedulers.dfrs.stretch_per import DynMcb8StretchPeriodicScheduler
from repro.exceptions import ConfigurationError
from repro.obs import Telemetry, push_telemetry

from .conftest import context, view


class TestDynMcb8:
    def test_packs_all_jobs_when_feasible(self):
        scheduler = DynMcb8Scheduler()
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [view(i, cpu=0.5, mem=0.2) for i in range(4)], cluster=cluster
        )
        decision = scheduler.schedule(ctx)
        assert set(decision.running) == {0, 1, 2, 3}
        for alloc in decision.running.values():
            assert MINIMUM_YIELD <= alloc.yield_value <= 1.0

    def test_average_yield_heuristic_fills_spare_capacity(self):
        scheduler = DynMcb8Scheduler()
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        ctx = context([view(0, cpu=0.25, mem=0.1)], cluster=cluster)
        decision = scheduler.schedule(ctx)
        assert decision.running[0].yield_value == pytest.approx(1.0)

    def test_evicts_lowest_priority_job_when_memory_infeasible(self):
        scheduler = DynMcb8Scheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [
                view(0, cpu=0.5, mem=0.8, vt=1000.0,
                     state=JobState.RUNNING, assignment=(0,), current_yield=1.0),
                view(1, cpu=0.5, mem=0.8, vt=0.0, submit=2000.0),
            ],
            cluster=cluster,
            time=2000.0,
        )
        decision = scheduler.schedule(ctx)
        # Only one of the two memory-hungry jobs fits; the never-run job has
        # infinite priority and must be the one that is kept.
        assert set(decision.running) == {1}

    def test_repacks_everything_including_paused_jobs(self):
        scheduler = DynMcb8Scheduler()
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [
                view(0, cpu=1.0, mem=0.2, state=JobState.PAUSED, vt=5.0),
                view(1, cpu=1.0, mem=0.2, state=JobState.RUNNING, assignment=(3,),
                     current_yield=0.5, vt=50.0),
            ],
            cluster=cluster,
            time=100.0,
        )
        decision = scheduler.schedule(ctx)
        assert set(decision.running) == {0, 1}

    def test_unchanged_job_set_reuses_the_search_even_unstarted(self):
        scheduler = DynMcb8Scheduler()  # never started
        cluster = Cluster(4)
        ctx = context([view(i, cpu=0.5, mem=0.2) for i in range(6)], cluster=cluster)
        sink = Telemetry()
        previous = push_telemetry(sink)
        try:
            placements, first_yield = scheduler.repack(ctx, list(ctx.jobs.values()))
            assert "packing.searches_reused" not in sink.counters
            want = dict(placements)
            placements.clear()  # the caller owns what repack returns
            again, second_yield = scheduler.repack(ctx, list(reversed(ctx.jobs.values())))
        finally:
            push_telemetry(previous)
        assert sink.counters["packing.searches_reused"] == 1
        assert again == want and second_yield == first_yield

    def test_unchanged_job_set_reuses_the_allocations_as_a_copy(self):
        scheduler = DynMcb8Scheduler()
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        ctx = context([view(i, cpu=0.5, mem=0.2) for i in range(10)], cluster=cluster)
        sink = Telemetry()
        previous = push_telemetry(sink)
        try:
            first = scheduler.schedule(ctx).running
            assert "packing.yields_reused" not in sink.counters
            want = dict(first)
            first.clear()  # the engine owns what a decision carries
            second = scheduler.schedule(ctx).running
        finally:
            push_telemetry(previous)
        assert sink.counters["packing.yields_reused"] == 1
        assert second == want and list(second) == list(want)
        assert any(alloc.yield_value < 1.0 for alloc in want.values())


class TestPeriodicVariants:
    def test_invalid_period_rejected(self):
        with pytest.raises(ConfigurationError):
            DynMcb8PeriodicScheduler(period=0.0)

    def test_name_contains_period(self):
        assert DynMcb8PeriodicScheduler(600).name == "dynmcb8-per-600"
        assert DynMcb8AsapPeriodicScheduler(60).name == "dynmcb8-asap-per-60"
        assert DynMcb8StretchPeriodicScheduler(3600).name == "dynmcb8-stretch-per-3600"

    def test_first_event_triggers_packing_and_arms_tick(self):
        scheduler = DynMcb8PeriodicScheduler(600)
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        ctx = context([view(0, cpu=0.5, mem=0.2)], cluster=cluster, time=100.0)
        decision = scheduler.schedule(ctx)
        assert 0 in decision.running
        assert decision.wakeups == [pytest.approx(700.0)]

    def test_submissions_between_ticks_wait(self):
        scheduler = DynMcb8PeriodicScheduler(600)
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        first = context([view(0, cpu=0.5, mem=0.2)], cluster=cluster, time=0.0)
        scheduler.schedule(first)
        # A new job arrives before the next tick: it is left waiting and the
        # running job keeps its allocation untouched.
        running = view(0, cpu=0.5, mem=0.2, state=JobState.RUNNING,
                       assignment=(0,), current_yield=0.8)
        later = context([running, view(1, cpu=0.5, mem=0.2, submit=100.0)],
                        cluster=cluster, time=100.0)
        decision = scheduler.schedule(later)
        assert set(decision.running) == {0}
        assert decision.running[0].yield_value == pytest.approx(0.8)
        assert decision.wakeups == []

    def test_tick_event_repacks_queue(self):
        scheduler = DynMcb8PeriodicScheduler(600)
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        scheduler.schedule(context([view(0, cpu=0.5, mem=0.2)], cluster=cluster, time=0.0))
        running = view(0, cpu=0.5, mem=0.2, state=JobState.RUNNING,
                       assignment=(0,), current_yield=1.0, vt=600.0)
        tick = context(
            [running, view(1, cpu=0.5, mem=0.2, submit=100.0)],
            cluster=cluster, time=600.0, is_wakeup=True,
        )
        decision = scheduler.schedule(tick)
        assert set(decision.running) == {0, 1}
        assert decision.wakeups == [pytest.approx(1200.0)]

    def test_asap_admits_new_jobs_immediately(self):
        scheduler = DynMcb8AsapPeriodicScheduler(600)
        cluster = Cluster(4)
        scheduler.start(cluster, 0.0)
        scheduler.schedule(context([view(0, cpu=0.5, mem=0.2)], cluster=cluster, time=0.0))
        running = view(0, cpu=0.5, mem=0.2, state=JobState.RUNNING,
                       assignment=(0,), current_yield=1.0)
        later = context([running, view(1, cpu=0.5, mem=0.2, submit=100.0)],
                        cluster=cluster, time=100.0)
        decision = scheduler.schedule(later)
        assert set(decision.running) == {0, 1}

    def test_asap_leaves_memory_blocked_jobs_waiting(self):
        scheduler = DynMcb8AsapPeriodicScheduler(600)
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        scheduler.schedule(context([view(0, cpu=0.5, mem=0.9)], cluster=cluster, time=0.0))
        running = view(0, cpu=0.5, mem=0.9, state=JobState.RUNNING,
                       assignment=(0,), current_yield=1.0)
        later = context([running, view(1, cpu=0.5, mem=0.5, submit=100.0)],
                        cluster=cluster, time=100.0)
        decision = scheduler.schedule(later)
        assert set(decision.running) == {0}


class TestStretchPeriodic:
    def test_assigns_higher_yield_to_lagging_jobs(self):
        scheduler = DynMcb8StretchPeriodicScheduler(600)
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [
                # Far behind: almost no virtual time despite a long flow time.
                view(0, cpu=1.0, mem=0.3, vt=30.0,
                     state=JobState.RUNNING, assignment=(0,), current_yield=0.5),
                # Comfortably ahead.
                view(1, cpu=1.0, mem=0.3, vt=2900.0,
                     state=JobState.RUNNING, assignment=(0,), current_yield=0.5),
            ],
            cluster=cluster,
            time=3000.0,
            is_wakeup=True,
        )
        decision = scheduler.schedule(ctx)
        assert set(decision.running) == {0, 1}
        assert (
            decision.running[0].yield_value > decision.running[1].yield_value
        )

    def test_respects_cpu_capacity(self):
        scheduler = DynMcb8StretchPeriodicScheduler(600)
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [view(i, cpu=1.0, mem=0.2, vt=10.0) for i in range(3)],
            cluster=cluster,
            time=100.0,
        )
        decision = scheduler.schedule(ctx)
        total = sum(a.yield_value for a in decision.running.values())
        assert total <= 1.0 + 0.05


class TestADownNodeHostsNothing:
    """A down node is a ``(0, 0)`` bin; the bins' epsilon must not let a tiny
    task in, or the engine refuses the decision (the node is down)."""

    @pytest.mark.parametrize(
        "algorithm", ["dynmcb8", "dynmcb8-per-600", "dynmcb8-stretch-per-600", "greedy-pmtn-migr"]
    )
    def test_tiny_tasks_avoid_a_node_down_from_the_start(self, algorithm):
        simulator = Simulator(
            Cluster(3, 4, 8.0),
            create_scheduler(algorithm),
            SimulationConfig(node_events=TraceNodeEventSource(events_list=((0.0, 0, "down"),))),
            observers=[log := PlacementLogObserver()],
        )
        result = simulator.run([JobSpec(0, 10.0, 2, 1e-10, 1e-10, 100.0)])
        assert result.num_jobs == 1
        placed = [nodes for _, _, _, nodes, _ in log.entries if nodes is not None]
        assert placed and all(0 not in nodes for nodes in placed)

    def test_the_zero_capacity_bin_is_skipped(self):
        job = PackingJob(1, 2, 1e-10, 1e-10)
        result = mcb8_pack_jobs([job], [1e-10], 3, [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)])
        assert result.assignments == {1: (1, 1)}
        for name in PACKER_NAMES:
            packer = get_packer(name)
            assert packer([job], [1e-10], 3, [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]) == result
