"""Tests for the virtual-time priority function (paper §III-A)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.job import Job, JobSpec
from repro.schedulers.dfrs.priority import (
    job_priority,
    priority_of_view,
    sort_by_decreasing_priority,
    sort_by_increasing_priority,
)

from .conftest import view


class TestJobPriority:
    def test_paper_example(self):
        # 10 s at yield 1.0 + 30 s at yield 0.5 = 25 s of virtual time.
        vt = 10 * 1.0 + 30 * 0.5
        flow = 10 + 120 + 30
        assert job_priority(flow, vt) == pytest.approx(160.0 / 625.0)

    def test_zero_virtual_time_is_infinite(self):
        assert math.isinf(job_priority(100.0, 0.0))

    def test_flow_time_bounded_below_by_30(self):
        assert job_priority(1.0, 10.0) == pytest.approx(30.0 / 100.0)
        assert job_priority(29.0, 10.0) == job_priority(5.0, 10.0)

    def test_short_jobs_have_higher_priority(self):
        """With equal flow time, the job that has run less keeps priority."""
        assert job_priority(1000.0, 50.0) > job_priority(1000.0, 500.0)

    def test_paused_jobs_eventually_dominate(self):
        """The flow-time numerator prevents starvation of paused jobs."""
        early = job_priority(100.0, 200.0)
        much_later = job_priority(1e6, 200.0)
        assert much_later > early

    def test_virtual_time_is_squared(self):
        assert job_priority(1000.0, 10.0) == pytest.approx(10.0)

    def test_greedy_pmtn_runs_under_the_squared_priority(self):
        from repro import Cluster, LublinWorkloadGenerator, run_algorithm, scale_to_load

        workload = LublinWorkloadGenerator(Cluster(16, 4, 8.0)).generate(40, seed=2010)
        result = run_algorithm(scale_to_load(workload, 0.7), "greedy-pmtn", penalty_seconds=300.0)
        assert result.num_jobs == 40 and result.max_stretch >= 1.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            job_priority(-1.0, 10.0)
        with pytest.raises(ValueError):
            job_priority(10.0, -1.0)

    @given(
        flow=st.floats(min_value=0.0, max_value=1e7),
        vt=st.floats(min_value=1e-3, max_value=1e7),
    )
    def test_priority_positive_property(self, flow, vt):
        assert job_priority(flow, vt) > 0.0


class TestPriorityOrdering:
    def test_increasing_order_puts_long_runners_first(self):
        views = [
            view(0, vt=1000.0),
            view(1, vt=10.0),
            view(2, vt=0.0, submit=1900.0),
        ]
        ordered = sort_by_increasing_priority(views, 2000.0)
        # Job 0 ran the longest (lowest priority) and is paused first; job 2
        # never ran (infinite priority) and is paused last.
        assert [v.job_id for v in ordered] == [0, 1, 2]

    def test_decreasing_is_reverse_of_increasing(self):
        views = [view(0, vt=5.0), view(1, vt=100.0)]
        inc = [v.job_id for v in sort_by_increasing_priority(views, 50.0)]
        dec = [v.job_id for v in sort_by_decreasing_priority(views, 50.0)]
        assert dec == list(reversed(inc))

    def test_deterministic_tie_break(self):
        views = [view(2, vt=10.0), view(1, vt=10.0)]
        first = [v.job_id for v in sort_by_increasing_priority(views, 50.0)]
        second = [v.job_id for v in sort_by_increasing_priority(list(reversed(views)), 50.0)]
        assert first == second

    def test_flow_time_comes_from_now(self):
        """Flow is ``now - submit``: the later submission has waited less."""
        views = [view(0, vt=100.0), view(1, vt=100.0, submit=5000.0)]
        assert [v.job_id for v in sort_by_increasing_priority(views, 6000.0)] == [1, 0]
        assert priority_of_view(views[1], 6000.0) == job_priority(1000.0, 100.0)
        assert priority_of_view(views[1], 4000.0) == job_priority(0.0, 100.0)


@pytest.mark.parametrize("now", [-0.0, 0.0, float("nan"), 5.0, 1.0, 1e7, math.inf])
@pytest.mark.parametrize("submit", [0.0, 2.0, 3.0])
@pytest.mark.parametrize("vt", [0.0, 0.5, 40.0])
def test_priority_of_view_equals_the_flow_time_field_rule(now, submit, vt):
    """What ``priority_of_view`` returned when views carried ``flow_time``:
    ``job_priority(Job.flow_time(now), vt)``, bit for bit."""
    job = Job(spec=JobSpec(0, submit, 1, 0.5, 0.5, 10.0))
    old = job_priority(job.flow_time(now), vt)
    new = priority_of_view(view(0, vt=vt, submit=submit), now)
    assert new.hex() == old.hex()
