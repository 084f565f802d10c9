"""Unit tests for GREEDY, GREEDY-PMTN, and GREEDY-PMTN-MIGR."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.job import JobState
from repro.schedulers.dfrs.greedy import MAX_BACKOFF_SECONDS, GreedyScheduler
from repro.schedulers.dfrs.greedy_pmtn import (
    GreedyPmtnMigrScheduler,
    GreedyPmtnScheduler,
)

from .conftest import context, view


class TestGreedy:
    def test_places_and_shares_cpu(self):
        scheduler = GreedyScheduler()
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        ctx = context(
            [view(0, cpu=1.0, mem=0.2), view(1, cpu=1.0, mem=0.2), view(2, cpu=1.0, mem=0.2)],
            cluster=cluster,
        )
        decision = scheduler.schedule(ctx)
        assert set(decision.running) == {0, 1, 2}
        # Two nodes, three CPU-bound jobs: the most loaded node has two tasks,
        # so the fair yield is 0.5; the lone job is then raised to 1.0 by the
        # average-yield heuristic.
        yields = sorted(a.yield_value for a in decision.running.values())
        assert yields[0] == pytest.approx(0.5)
        assert yields[-1] == pytest.approx(1.0)

    def test_memory_blocked_job_is_postponed_with_backoff(self):
        scheduler = GreedyScheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        running = view(
            0, cpu=0.5, mem=0.8, state=JobState.RUNNING, assignment=(0,), current_yield=1.0
        )
        incoming = view(1, cpu=0.5, mem=0.5)
        ctx = context([running, incoming], cluster=cluster, time=100.0)
        decision = scheduler.schedule(ctx)
        assert 1 not in decision.running
        assert 0 in decision.running
        # First failure: retry in 2^1 = 2 seconds.
        assert decision.wakeups == [pytest.approx(102.0)]

    def test_backoff_is_bounded(self):
        scheduler = GreedyScheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        running = view(
            0, cpu=0.5, mem=0.9, state=JobState.RUNNING, assignment=(0,), current_yield=1.0
        )
        incoming = view(1, cpu=0.5, mem=0.5)
        last_delay = None
        for attempt in range(20):
            ctx = context([running, incoming], cluster=cluster, time=float(10 ** 6 * (attempt + 1)))
            decision = scheduler.schedule(ctx)
            assert 1 not in decision.running
            last_delay = decision.wakeups[0] - ctx.time
        assert last_delay == pytest.approx(MAX_BACKOFF_SECONDS)

    @pytest.mark.parametrize(
        "scheduler_class", [GreedyScheduler, GreedyPmtnScheduler, GreedyPmtnMigrScheduler]
    )
    def test_backoff_of_a_job_that_left_is_dropped(self, scheduler_class):
        """A postponed job that is cancelled never reaches ``_forget``."""
        scheduler = scheduler_class()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        # Two 60% tasks never fit one node, with or without preemption.
        too_wide = view(1, tasks=2, cpu=0.5, mem=0.6)
        other = view(2, cpu=0.5, mem=0.1)
        decision = scheduler.schedule(context([too_wide, other], cluster=cluster))
        assert 1 not in decision.running
        assert set(scheduler._retry_counts) == set(scheduler._retry_times) == {1}
        running = view(
            2, cpu=0.5, mem=0.1, state=JobState.RUNNING, assignment=(0,), current_yield=1.0
        )
        scheduler.schedule(context([running], cluster=cluster, time=1.0))
        assert scheduler._retry_counts == {}
        assert scheduler._retry_times == {}

    def test_never_preempts_running_jobs(self):
        scheduler = GreedyScheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        running = view(
            0, cpu=1.0, mem=0.9, state=JobState.RUNNING, assignment=(0,), current_yield=1.0
        )
        incoming = view(1, cpu=1.0, mem=0.5, submit=50.0)
        ctx = context([running, incoming], cluster=cluster, time=50.0)
        decision = scheduler.schedule(ctx)
        assert 0 in decision.running
        assert decision.running[0].nodes == (0,)
        assert 1 not in decision.running


class TestGreedyPmtn:
    def test_forces_admission_by_pausing_low_priority_job(self):
        scheduler = GreedyPmtnScheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        # The running job has accumulated a lot of virtual time (low priority).
        running = view(
            0, cpu=1.0, mem=0.9, state=JobState.RUNNING, assignment=(0,),
            current_yield=1.0, vt=5000.0,
        )
        incoming = view(1, cpu=1.0, mem=0.5, submit=5000.0)
        ctx = context([running, incoming], cluster=cluster, time=5000.0)
        decision = scheduler.schedule(ctx)
        assert 1 in decision.running
        assert 0 not in decision.running  # paused to make room

    def test_does_not_pause_more_than_needed(self):
        scheduler = GreedyPmtnScheduler()
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        views = [
            view(0, cpu=0.5, mem=0.9, state=JobState.RUNNING, assignment=(0,),
                 current_yield=1.0, vt=100.0, submit=100.0),
            view(1, cpu=0.5, mem=0.9, state=JobState.RUNNING, assignment=(1,),
                 current_yield=1.0, vt=5000.0),
            view(2, cpu=0.5, mem=0.5, submit=300.0),
        ]
        ctx = context(views, cluster=cluster, time=300.0)
        decision = scheduler.schedule(ctx)
        assert 2 in decision.running
        # Exactly one running job is paused (the lower-priority job 1).
        assert 0 in decision.running
        assert 1 not in decision.running

    def test_resumes_paused_jobs_when_memory_frees_up(self):
        scheduler = GreedyPmtnScheduler()
        cluster = Cluster(1)
        scheduler.start(cluster, 0.0)
        paused = view(0, cpu=1.0, mem=0.5, state=JobState.PAUSED, vt=10.0, submit=500.0)
        ctx = context([paused], cluster=cluster, time=1000.0, completed=[7])
        decision = scheduler.schedule(ctx)
        assert 0 in decision.running

    def test_incoming_job_placed_without_preemption_when_possible(self):
        scheduler = GreedyPmtnScheduler()
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        running = view(
            0, cpu=1.0, mem=0.5, state=JobState.RUNNING, assignment=(0,),
            current_yield=1.0, vt=10.0,
        )
        incoming = view(1, cpu=1.0, mem=0.5, submit=20.0)
        ctx = context([running, incoming], cluster=cluster, time=20.0)
        decision = scheduler.schedule(ctx)
        assert set(decision.running) == {0, 1}
        assert decision.running[0].nodes == (0,)

    def test_pmtn_does_not_move_paused_jobs_within_event(self):
        """A job paused at this event is not restarted in the same decision."""
        scheduler = GreedyPmtnScheduler()
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        views = [
            view(0, cpu=1.0, mem=1.0, state=JobState.RUNNING, assignment=(0,),
                 current_yield=1.0, vt=900.0),
            view(1, cpu=1.0, mem=1.0, state=JobState.RUNNING, assignment=(1,),
                 current_yield=1.0, vt=10.0),
            # Needs a full node of memory: one of the running jobs must pause.
            view(2, cpu=1.0, mem=1.0, submit=1000.0),
        ]
        ctx = context(views, cluster=cluster, time=1000.0)
        decision = scheduler.schedule(ctx)
        assert 2 in decision.running
        # Job 0 (lowest priority) is paused and NOT restarted elsewhere.
        assert 0 not in decision.running
        assert 1 in decision.running


class TestGreedyPmtnMigr:
    def test_paused_job_may_move_within_the_event(self):
        scheduler = GreedyPmtnMigrScheduler()
        cluster = Cluster(3)
        scheduler.start(cluster, 0.0)
        views = [
            # Low-priority job occupying the only node with enough memory for
            # the incoming job.
            view(0, cpu=1.0, mem=0.6, state=JobState.RUNNING, assignment=(0,),
                 current_yield=1.0, vt=900.0),
            view(1, cpu=1.0, mem=0.9, state=JobState.RUNNING, assignment=(1,),
                 current_yield=1.0, vt=10.0),
            view(2, cpu=1.0, mem=0.9, state=JobState.RUNNING, assignment=(2,),
                 current_yield=1.0, vt=10.0),
            view(3, cpu=1.0, mem=1.0, submit=1000.0),
        ]
        ctx = context(views, cluster=cluster, time=1000.0)
        decision = scheduler.schedule(ctx)
        assert 3 in decision.running
        # With MIGR, job 0 is restarted within the same event on another node
        # (there is no free memory elsewhere, so it may also stay paused; the
        # essential property is that the incoming job started).
        if 0 in decision.running:
            assert decision.running[0].nodes != (0,)

    def test_migr_prefers_moving_over_waiting(self):
        scheduler = GreedyPmtnMigrScheduler()
        cluster = Cluster(2)
        scheduler.start(cluster, 0.0)
        views = [
            view(0, cpu=1.0, mem=0.3, state=JobState.RUNNING, assignment=(0,),
                 current_yield=1.0, vt=900.0),
            # Incoming job needs 0.8 memory: fits on node 1 directly, no pause.
            view(1, cpu=1.0, mem=0.8, submit=1000.0),
        ]
        ctx = context(views, cluster=cluster, time=1000.0)
        decision = scheduler.schedule(ctx)
        assert set(decision.running) == {0, 1}
