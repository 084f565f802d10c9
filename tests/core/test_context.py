"""Unit tests for :mod:`repro.core.context`."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.context import JobView, SchedulingContext
from repro.core.job import JobState


def make_view(job_id, state, assignment=None, current_yield=0.0, **kwargs):
    defaults = dict(
        num_tasks=2,
        cpu_need=0.5,
        mem_requirement=0.25,
        submit_time=0.0,
        virtual_time=0.0,
        last_assignment=assignment,
    )
    defaults.update(kwargs)
    return JobView(
        job_id=job_id,
        state=state,
        assignment=assignment,
        current_yield=current_yield,
        **defaults,
    )


class TestJobView:
    def test_totals_and_state_flags(self):
        view = make_view(1, JobState.PENDING)
        assert view.total_cpu_need == pytest.approx(1.0)
        assert view.total_memory == pytest.approx(0.5)
        assert view.is_pending and not view.is_running and not view.is_paused

    def test_running_flags(self):
        view = make_view(1, JobState.RUNNING, assignment=(0, 1), current_yield=0.7)
        assert view.is_running
        assert view.assignment == (0, 1)

    def test_estimates_default_to_none(self):
        view = make_view(1, JobState.PENDING)
        assert view.runtime_estimate is None
        assert view.remaining_runtime_estimate is None

    def test_views_reject_attribute_assignment(self):
        view = make_view(1, JobState.RUNNING, assignment=(0, 1), current_yield=0.7)
        for name in JobView._fields:
            with pytest.raises(AttributeError):
                setattr(view, name, None)
        with pytest.raises(AttributeError):
            view.is_running = False  # properties are read-only too
        with pytest.raises(AttributeError):
            view.extra = 1  # and there is no instance dict to scribble on
        assert view.current_yield == 0.7


class TestSchedulingContext:
    def _context(self):
        cluster = Cluster(4)
        views = {
            0: make_view(0, JobState.RUNNING, assignment=(0, 1), current_yield=0.8),
            1: make_view(1, JobState.PAUSED),
            2: make_view(2, JobState.PENDING),
        }
        return SchedulingContext(time=100.0, cluster=cluster, jobs=views)

    def test_state_partitions(self):
        ctx = self._context()
        assert [v.job_id for v in ctx.running_jobs()] == [0]
        assert [v.job_id for v in ctx.paused_jobs()] == [1]
        assert [v.job_id for v in ctx.pending_jobs()] == [2]

    def test_partition_matches_the_per_state_filters_in_jobs_order(self):
        states = [
            JobState.PENDING,
            JobState.RUNNING,
            JobState.PAUSED,
            JobState.RUNNING,
            JobState.COMPLETED,  # never handed out by the engine: in no list
            JobState.PENDING,
            JobState.PAUSED,
            JobState.RUNNING,
        ]
        # Ids deliberately not ascending: the order is that of ``jobs``.
        ids = [7, 3, 9, 1, 4, 8, 2, 6]
        views = {
            job_id: make_view(
                job_id,
                state,
                assignment=(0, 1) if state is JobState.RUNNING else None,
                current_yield=0.5 if state is JobState.RUNNING else 0.0,
            )
            for job_id, state in zip(ids, states)
        }
        ctx = SchedulingContext(time=0.0, cluster=Cluster(4), jobs=views)
        # The old rules, one filter per accessor.
        assert ctx.running_jobs() == [v for v in views.values() if v.is_running]
        assert ctx.paused_jobs() == [v for v in views.values() if v.is_paused]
        assert ctx.pending_jobs() == [v for v in views.values() if v.is_pending]
        assert [v.job_id for v in ctx.running_jobs()] == [3, 1, 6]
        assert [v.job_id for v in ctx.paused_jobs()] == [9, 2]
        assert [v.job_id for v in ctx.pending_jobs()] == [7, 8]

    def test_partition_lists_are_fresh(self):
        ctx = self._context()
        for accessor in (ctx.running_jobs, ctx.paused_jobs, ctx.pending_jobs):
            first = accessor()
            expected = list(first)
            first.clear()
            first.append("scribble")
            assert accessor() == expected
            assert accessor() is not accessor()
        assert set(ctx.current_allocations()) == {0}

    def test_usage_from_running(self):
        ctx = self._context()
        usage = ctx.usage_from_running()
        assert usage.cpu_load(0) == pytest.approx(0.5)
        assert usage.cpu_allocated(0) == pytest.approx(0.4)
        assert usage.memory_used(1) == pytest.approx(0.25)
        assert usage.busy_nodes() == 2

    def test_current_allocations(self):
        ctx = self._context()
        allocations = ctx.current_allocations()
        assert set(allocations) == {0}
        assert allocations[0].nodes == (0, 1)
        assert allocations[0].yield_value == pytest.approx(0.8)
