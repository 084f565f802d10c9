"""Tests for the Workload container and offered-load computation."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.exceptions import WorkloadError
from repro.traces import characterize_stream
from repro.traces.model import Workload, offered_load

from ..conftest import make_job


class TestOfferedLoad:
    def test_simple_load(self):
        cluster = Cluster(10)
        jobs = [
            make_job(0, submit=0.0, tasks=5, runtime=100.0),
            make_job(1, submit=100.0, tasks=5, runtime=100.0),
        ]
        # Demand = 1000 node-seconds; capacity = 10 nodes * 100 s span.
        assert offered_load(jobs, cluster) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert offered_load([], Cluster(4)) == 0.0

    def test_zero_span_is_infinite(self):
        jobs = [make_job(0), make_job(1)]
        assert offered_load(jobs, Cluster(4)) == float("inf")


class TestWorkload:
    def test_jobs_sorted_by_submit_time(self, small_cluster):
        jobs = [make_job(1, submit=100.0), make_job(0, submit=50.0)]
        workload = Workload("w", small_cluster, jobs)
        assert [spec.job_id for spec in workload] == [0, 1]
        assert workload.num_jobs == 2
        assert workload.span_seconds == pytest.approx(50.0)

    def test_duplicate_ids_rejected(self, small_cluster):
        with pytest.raises(WorkloadError):
            Workload("w", small_cluster, [make_job(0), make_job(0, submit=10.0)])

    def test_segments_rebase_times(self, small_cluster):
        week = 7 * 24 * 3600.0
        jobs = [
            make_job(0, submit=100.0),
            make_job(1, submit=week + 200.0),
            make_job(2, submit=week + 300.0),
        ]
        workload = Workload("w", small_cluster, jobs)
        segments = workload.segments(week)
        assert len(segments) == 2
        assert segments[0].num_jobs == 1
        assert segments[1].num_jobs == 2
        # Segments are measured from the first submission (t=100), so the job
        # submitted at week+200 lands 100 s into the second segment.
        assert segments[1].jobs[0].submit_time == pytest.approx(100.0)

    def test_segments_invalid_duration(self, small_cluster):
        workload = Workload("w", small_cluster, [make_job(0)])
        with pytest.raises(WorkloadError):
            workload.segments(0.0)

    def test_statistics(self, small_workload):
        profile, _ = characterize_stream(small_workload.jobs, small_workload.cluster)
        assert profile.num_jobs == 30
        assert profile.max_tasks <= small_workload.cluster.num_nodes
        assert 0.0 <= profile.serial_fraction <= 1.0
        assert profile.offered_load == small_workload.load() > 0.0
