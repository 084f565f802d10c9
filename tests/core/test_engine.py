"""Unit tests for the discrete-event engine (:mod:`repro.core.engine`)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import pytest

from repro.core.allocation import AllocationDecision
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobState
from repro.core.penalties import ReschedulingPenaltyModel
from repro.exceptions import AllocationError, SimulationError
from repro.schedulers.base import Scheduler

from ..conftest import make_job


class ScriptedScheduler(Scheduler):
    """Scheduler whose behaviour is driven by a user-supplied callback."""

    name = "scripted"

    def __init__(self, callback: Callable[["ScriptedScheduler", object], AllocationDecision]):
        self._callback = callback
        self.calls: List[object] = []

    def schedule(self, context):
        self.calls.append(context)
        return self._callback(self, context)


def run_everything_once(scheduler_callback, jobs, *, nodes=4, penalty=0.0):
    cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
    scheduler = ScriptedScheduler(scheduler_callback)
    simulator = Simulator(
        cluster,
        scheduler,
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty)),
    )
    return simulator.run(jobs), scheduler


def always_run_alone(scheduler, context):
    """Run every active job, one task per node, full yield."""
    decision = AllocationDecision()
    node = 0
    for view in context.jobs.values():
        nodes = list(range(node, node + view.num_tasks))
        node += view.num_tasks
        decision.set(view.job_id, nodes, 1.0)
    return decision


class TestBasicExecution:
    def test_single_job_runs_to_completion(self):
        jobs = [make_job(0, submit=10.0, runtime=100.0)]
        result, scheduler = run_everything_once(always_run_alone, jobs)
        assert result.num_jobs == 1
        record = result.jobs[0]
        assert record.first_start_time == pytest.approx(10.0)
        assert record.completion_time == pytest.approx(110.0)
        assert record.turnaround_time == pytest.approx(100.0)
        assert record.stretch == pytest.approx(1.0)
        assert result.costs.preemption_count == 0
        assert result.costs.migration_count == 0

    def test_half_yield_doubles_runtime(self):
        def half_yield(scheduler, context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                decision.set(view.job_id, [0], 0.5)
            return decision

        jobs = [make_job(0, submit=0.0, runtime=100.0, cpu=1.0)]
        result, _ = run_everything_once(half_yield, jobs)
        assert result.jobs[0].completion_time == pytest.approx(200.0)
        assert result.jobs[0].stretch == pytest.approx(2.0)

    def test_two_jobs_sharing_a_node(self):
        def share(scheduler, context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                decision.set(view.job_id, [0], 0.5)
            return decision

        jobs = [
            make_job(0, submit=0.0, runtime=100.0, cpu=1.0, mem=0.4),
            make_job(1, submit=0.0, runtime=100.0, cpu=1.0, mem=0.4),
        ]
        result, _ = run_everything_once(share, jobs)
        for record in result.jobs:
            assert record.completion_time == pytest.approx(200.0)

    def test_empty_workload_rejected(self):
        with pytest.raises(SimulationError):
            run_everything_once(always_run_alone, [])

    def test_duplicate_job_ids_rejected(self):
        jobs = [make_job(0), make_job(0)]
        with pytest.raises(SimulationError):
            run_everything_once(always_run_alone, jobs)

    def test_makespan_spans_first_submit_to_last_completion(self):
        jobs = [
            make_job(0, submit=100.0, runtime=50.0),
            make_job(1, submit=400.0, runtime=10.0),
        ]
        result, _ = run_everything_once(always_run_alone, jobs)
        assert result.makespan == pytest.approx(310.0)


class TestSchedulerInteraction:
    def test_scheduler_sees_submissions_and_completions(self):
        seen = {"submitted": [], "completed": []}

        def recording(scheduler, context):
            seen["submitted"].extend(context.submitted)
            seen["completed"].extend(context.completed)
            return always_run_alone(scheduler, context)

        jobs = [make_job(0, submit=0.0, runtime=10.0), make_job(1, submit=5.0, runtime=10.0)]
        run_everything_once(recording, jobs)
        assert seen["submitted"] == [0, 1]
        # The engine skips the pointless invocation after the very last
        # completion, so only job 0's completion is observed by the policy.
        assert seen["completed"] == [0]

    def test_deadlock_without_wakeup_raises(self):
        def never_schedule(scheduler, context):
            return AllocationDecision()

        jobs = [make_job(0, runtime=10.0)]
        with pytest.raises(SimulationError, match="deadlock"):
            run_everything_once(never_schedule, jobs)

    def test_wakeup_requests_are_honoured(self):
        def delayed_start(scheduler, context):
            decision = AllocationDecision()
            if context.time < 50.0:
                decision.request_wakeup(50.0)
                return decision
            return always_run_alone(scheduler, context)

        jobs = [make_job(0, submit=0.0, runtime=10.0)]
        result, scheduler = run_everything_once(delayed_start, jobs)
        assert result.jobs[0].first_start_time == pytest.approx(50.0)
        assert result.jobs[0].completion_time == pytest.approx(60.0)

    def test_wakeup_in_the_past_rejected(self):
        def bad_wakeup(scheduler, context):
            decision = always_run_alone(scheduler, context)
            decision.request_wakeup(context.time - 100.0)
            return decision

        jobs = [make_job(0, submit=200.0, runtime=10.0)]
        with pytest.raises(SimulationError, match="past"):
            run_everything_once(bad_wakeup, jobs)

    def test_allocating_completed_job_rejected(self):
        def stubborn(scheduler, context):
            decision = AllocationDecision()
            decision.set(0, [0], 1.0)
            return decision

        jobs = [make_job(0, runtime=10.0), make_job(1, submit=100.0, runtime=10.0)]
        # Finished jobs leave the context, so decision validation is what
        # catches this (the engine has no second check of its own).
        with pytest.raises(AllocationError, match="unknown job 0"):
            run_everything_once(stubborn, jobs)

    def test_clairvoyant_flag_controls_runtime_estimates(self):
        observed: Dict[str, Optional[float]] = {}

        def peek(scheduler, context):
            for view in context.jobs.values():
                observed["estimate"] = view.runtime_estimate
            return always_run_alone(scheduler, context)

        jobs = [make_job(0, runtime=123.0)]
        result, scheduler = run_everything_once(peek, jobs)
        assert observed["estimate"] is None

        def peek2(scheduler, context):
            for view in context.jobs.values():
                observed["estimate"] = view.runtime_estimate
            return always_run_alone(scheduler, context)

        cluster = Cluster(num_nodes=4)
        scheduler = ScriptedScheduler(peek2)
        scheduler.requires_runtime_estimates = True
        Simulator(cluster, scheduler).run(jobs)
        assert observed["estimate"] == pytest.approx(123.0)


class TestPreemptionAndMigrationAccounting:
    def test_pause_and_resume_charges_one_penalty(self):
        # Job 0 runs, gets paused when job 1 arrives, resumes when job 1 ends.
        def pause_for_job1(scheduler, context):
            decision = AllocationDecision()
            views = context.jobs
            if 1 in views and views[1].state is not JobState.COMPLETED:
                decision.set(1, [0], 1.0)
            elif 0 in views:
                decision.set(0, [0], 1.0)
            return decision

        jobs = [
            make_job(0, submit=0.0, runtime=100.0, mem=0.8),
            make_job(1, submit=50.0, runtime=40.0, mem=0.8),
        ]
        result, _ = run_everything_once(pause_for_job1, jobs, penalty=30.0)
        record0 = result.record_for(0)
        record1 = result.record_for(1)
        assert record1.completion_time == pytest.approx(90.0)
        assert record0.preemptions == 1
        assert record0.migrations == 0
        # Job 0 did 50 s of work, was paused for 40 s, pays a 30 s resume
        # penalty, then finishes its remaining 50 s: 90 + 30 + 50 = 170.
        assert record0.completion_time == pytest.approx(170.0)
        assert result.costs.preemption_count == 1
        assert result.costs.preemption_gb == pytest.approx(0.8 * 8.0)

    def test_migration_charges_penalty_and_counts(self):
        def migrate_once(scheduler, context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                if view.job_id == 0:
                    target = [1] if context.time >= 50.0 else [0]
                else:
                    target = [2]
                decision.set(view.job_id, target, 1.0)
            return decision

        jobs = [
            make_job(0, submit=0.0, runtime=100.0, mem=0.5),
            make_job(1, submit=50.0, runtime=10.0, mem=0.1),
        ]
        result, _ = run_everything_once(migrate_once, jobs, penalty=20.0)
        record0 = result.record_for(0)
        assert record0.migrations >= 1
        assert record0.preemptions == 0
        assert result.costs.migration_gb >= 0.5 * 8.0 - 1e-9
        # One migration at t=50 adds a 20-second stall.
        assert record0.completion_time >= 120.0 - 1e-6

    def test_yield_change_without_node_change_is_free(self):
        def shrink_yield(scheduler, context):
            decision = AllocationDecision()
            value = 1.0 if context.time < 50.0 else 0.5
            for view in context.jobs.values():
                decision.set(view.job_id, [0], value)
            return decision

        jobs = [
            make_job(0, submit=0.0, runtime=100.0),
            make_job(1, submit=50.0, runtime=10.0, mem=0.1),
        ]
        result, _ = run_everything_once(shrink_yield, jobs, penalty=300.0)
        record0 = result.record_for(0)
        assert record0.preemptions == 0
        assert record0.migrations == 0
        # 50 s at yield 1.0 plus 100 s at yield 0.5 -> completes at t=150.
        assert record0.completion_time == pytest.approx(150.0)

    def test_zero_penalty_preemption_still_counted(self):
        def pause_then_resume(scheduler, context):
            decision = AllocationDecision()
            views = context.jobs
            if 1 in views and views[1].state is not JobState.COMPLETED:
                decision.set(1, [0], 1.0)
            elif 0 in views:
                decision.set(0, [0], 1.0)
            return decision

        jobs = [
            make_job(0, submit=0.0, runtime=100.0, mem=0.9),
            make_job(1, submit=10.0, runtime=10.0, mem=0.9),
        ]
        result, _ = run_everything_once(pause_then_resume, jobs, penalty=0.0)
        assert result.costs.preemption_count == 1
        # Without a penalty the preempted job only loses the pause interval.
        assert result.record_for(0).completion_time == pytest.approx(110.0)


class TestGuards:
    def test_max_events_guard_catches_thrashing(self):
        """A scheduler that endlessly requests wake-ups without progress is
        detected by the event-count guard instead of hanging the process."""

        def thrash(scheduler, context):
            decision = AllocationDecision()
            decision.request_wakeup(context.time + 1.0)
            return decision

        cluster = Cluster(num_nodes=2)
        scheduler = ScriptedScheduler(thrash)
        simulator = Simulator(
            cluster, scheduler, SimulationConfig(max_events=50)
        )
        with pytest.raises(SimulationError, match="max_events"):
            simulator.run([make_job(0, runtime=10.0)])

    def test_batch_scheduler_rejects_oversized_job_upfront(self):
        """A job wider than the cluster can never start under exclusive-node
        batch scheduling; the engine refuses the workload instead of
        deadlocking hours into a simulation."""
        cluster = Cluster(num_nodes=2)
        scheduler = ScriptedScheduler(always_run_alone)
        scheduler.exclusive_node_allocation = True
        simulator = Simulator(cluster, scheduler)
        with pytest.raises(SimulationError, match="batch"):
            simulator.run([make_job(0, tasks=4, runtime=10.0)])

    def test_dfrs_accepts_job_wider_than_cluster(self):
        """DFRS can co-locate tasks, so a 4-task job on 2 nodes is fine."""

        def stack_two_per_node(scheduler, context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                decision.set(view.job_id, [0, 0, 1, 1], 0.5)
            return decision

        cluster = Cluster(num_nodes=2)
        scheduler = ScriptedScheduler(stack_two_per_node)
        result = Simulator(cluster, scheduler).run(
            [make_job(0, tasks=4, cpu=1.0, mem=0.4, runtime=100.0)]
        )
        assert result.jobs[0].completion_time == pytest.approx(200.0)


class TestOnlineCancel:
    def test_cancelling_a_queued_submission_twice_reports_once(self):
        simulator = Simulator(Cluster(num_nodes=2), ScriptedScheduler(always_run_alone))
        simulator.online_begin(0.0)
        simulator.online_submit(make_job(0, submit=50.0, runtime=10.0))
        assert simulator.online_cancel(0) is True
        # Still queued until its event surfaces, but already withdrawn.
        assert simulator.online_cancel(0) is False
        assert simulator.online_step() == 50.0
        assert simulator.online_cancel(0) is False
        assert simulator.online_finalize().jobs == []


class TestIdleAccounting:
    def test_idle_node_seconds(self):
        jobs = [make_job(0, submit=0.0, runtime=100.0)]
        result, _ = run_everything_once(always_run_alone, jobs, nodes=4)
        # One node busy for 100 s, three idle: 300 idle node-seconds.
        assert result.idle_node_seconds == pytest.approx(300.0)
        assert result.mean_idle_nodes() == pytest.approx(3.0)
