"""Direct unit tests for the offered-load scaling helpers (paper §IV-C)."""

from __future__ import annotations

import pytest

from repro.core import Cluster, JobSpec
from repro.exceptions import ConfigurationError, WorkloadError
from repro.traces import Workload, offered_load, scale_to_load

CLUSTER = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)


def _spec(job_id, submit, tasks=2, runtime=400.0):
    return JobSpec(job_id, submit, tasks, 0.5, 0.2, runtime)


def _workload(num_jobs=10, gap=100.0):
    return Workload(
        "scalable",
        CLUSTER,
        [_spec(i, i * gap) for i in range(num_jobs)],
    )


class TestScaleToLoad:
    @pytest.mark.parametrize("target", [0.1, 0.5, 0.9, 1.5])
    def test_hits_target_exactly(self, target):
        scaled = scale_to_load(_workload(), target)
        assert scaled.load() == pytest.approx(target)

    def test_job_mix_is_preserved(self):
        workload = _workload()
        scaled = scale_to_load(workload, 0.3)
        assert scaled.num_jobs == workload.num_jobs
        for before, after in zip(workload.jobs, scaled.jobs):
            assert after.job_id == before.job_id
            assert after.num_tasks == before.num_tasks
            assert after.execution_time == before.execution_time
            assert after.cpu_need == before.cpu_need
            assert after.mem_requirement == before.mem_requirement

    def test_only_interarrivals_move(self):
        workload = _workload()
        scaled = scale_to_load(workload, workload.load() / 2.0)
        # Halving the load doubles the submission span, anchored at the
        # first submission.
        assert scaled.jobs[0].submit_time == workload.jobs[0].submit_time
        assert scaled.span_seconds == pytest.approx(2.0 * workload.span_seconds)

    def test_scaled_name_mentions_load(self):
        assert scale_to_load(_workload(), 0.5).name == "scalable-load0.5"

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ConfigurationError):
            scale_to_load(_workload(), 0.0)
        with pytest.raises(ConfigurationError):
            scale_to_load(_workload(), -0.5)

    def test_rejects_tiny_workloads(self):
        single = Workload("one", CLUSTER, [_spec(0, 0.0)])
        with pytest.raises(WorkloadError):
            scale_to_load(single, 0.5)

    def test_rejects_degenerate_span(self):
        burst = Workload("burst", CLUSTER, [_spec(0, 0.0), _spec(1, 0.0)])
        # All jobs submitted at t=0: offered load is infinite.
        with pytest.raises(WorkloadError):
            scale_to_load(burst, 0.5)


class TestOfferedLoad:
    def test_matches_hand_computation(self):
        jobs = [_spec(0, 0.0, tasks=4, runtime=100.0), _spec(1, 50.0, tasks=2, runtime=100.0)]
        # demand = 4*100 + 2*100 = 600 node-seconds over span 50 s on 8 nodes.
        assert offered_load(jobs, CLUSTER) == pytest.approx(600.0 / (8 * 50.0))

    def test_empty_jobs_have_zero_load(self):
        assert offered_load([], CLUSTER) == 0.0
