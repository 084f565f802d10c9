"""Unit tests for :mod:`repro.core.allocation`."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.allocation import AllocationDecision, JobAllocation, validate_decision
from repro.core.job import MINIMUM_YIELD, JobState
from repro.exceptions import AllocationError, InfeasibleAllocationError

from ..conftest import make_job
from .test_context import make_view


class TestJobAllocation:
    def test_create_clamps_yield(self):
        alloc = JobAllocation.create([0, 1], 1.5)
        assert alloc.yield_value == pytest.approx(1.0)
        alloc = JobAllocation.create([0], 0.0001)
        assert alloc.yield_value == pytest.approx(MINIMUM_YIELD)

    def test_create_normalises_numpy_integers_to_python_ints(self):
        """The placement log is JSON: ``np.int64`` nodes would not serialise."""
        for nodes in (np.array([3, 1, 3]), [np.int64(3), np.int32(1), 3], (3, 1, 3)):
            alloc = JobAllocation.create(nodes, 0.5)
            assert alloc.nodes == (3, 1, 3)
            assert all(type(node) is int for node in alloc.nodes)
            assert json.dumps(alloc.nodes) == "[3, 1, 3]"
        assert JobAllocation.create(iter([2, 0]), 0.5).nodes == (2, 0)

    def test_empty_nodes_rejected(self):
        with pytest.raises(AllocationError):
            JobAllocation(tuple(), 1.0)
        with pytest.raises(AllocationError):
            JobAllocation.create([], 1.0)

    def test_bad_yield_rejected(self):
        with pytest.raises(AllocationError):
            JobAllocation((0,), 0.0)
        with pytest.raises(AllocationError):
            JobAllocation((0,), 1.5)

    def test_with_yield(self):
        alloc = JobAllocation((0, 1), 0.5)
        new = alloc.with_yield(0.7)
        assert new.nodes == (0, 1)
        assert new.yield_value == pytest.approx(0.7)
        assert alloc.yield_value == pytest.approx(0.5)


class TestAllocationDecision:
    def test_set_and_wakeups(self):
        decision = AllocationDecision()
        decision.set(7, [1, 2], 0.8)
        decision.request_wakeup(100.0)
        assert 7 in decision.running
        assert decision.running[7].nodes == (1, 2)
        assert decision.wakeups == [100.0]
        assert list(decision.job_ids()) == [7]


class TestValidateDecision:
    def test_valid_decision(self, small_cluster):
        specs = {1: make_job(1, tasks=2, cpu=0.5, mem=0.2)}
        decision = AllocationDecision()
        decision.set(1, [0, 1], 1.0)
        usage = validate_decision(decision, specs, small_cluster)
        assert usage.cpu_allocated(0) == pytest.approx(0.5)
        assert usage.memory_used(1) == pytest.approx(0.2)

    def test_unknown_job_rejected(self, small_cluster):
        decision = AllocationDecision()
        decision.set(99, [0], 1.0)
        with pytest.raises(AllocationError):
            validate_decision(decision, {}, small_cluster)

    def test_wrong_arity_rejected(self, small_cluster):
        specs = {1: make_job(1, tasks=3)}
        decision = AllocationDecision()
        decision.set(1, [0, 1], 1.0)
        with pytest.raises(AllocationError):
            validate_decision(decision, specs, small_cluster)

    def test_out_of_range_node_rejected(self, small_cluster):
        specs = {1: make_job(1, tasks=1)}
        decision = AllocationDecision()
        decision.set(1, [small_cluster.num_nodes], 1.0)
        with pytest.raises(AllocationError):
            validate_decision(decision, specs, small_cluster)

    def test_memory_overcommit_rejected(self, small_cluster):
        specs = {
            1: make_job(1, tasks=1, mem=0.7),
            2: make_job(2, tasks=1, mem=0.7),
        }
        decision = AllocationDecision()
        decision.set(1, [0], 0.5)
        decision.set(2, [0], 0.5)
        with pytest.raises(InfeasibleAllocationError):
            validate_decision(decision, specs, small_cluster)

    def test_cpu_overcommit_rejected(self, small_cluster):
        specs = {
            1: make_job(1, tasks=1, cpu=1.0, mem=0.1),
            2: make_job(2, tasks=1, cpu=1.0, mem=0.1),
        }
        decision = AllocationDecision()
        decision.set(1, [0], 0.8)
        decision.set(2, [0], 0.8)
        with pytest.raises(InfeasibleAllocationError):
            validate_decision(decision, specs, small_cluster)

    def test_cpu_sharing_within_capacity_accepted(self, small_cluster):
        specs = {
            1: make_job(1, tasks=1, cpu=1.0, mem=0.1),
            2: make_job(2, tasks=1, cpu=1.0, mem=0.1),
        }
        decision = AllocationDecision()
        decision.set(1, [0], 0.5)
        decision.set(2, [0], 0.5)
        usage = validate_decision(decision, specs, small_cluster)
        assert usage.cpu_allocated(0) == pytest.approx(1.0)

    def test_memory_violation_names_the_job(self, small_cluster):
        specs = {
            1: make_job(1, tasks=1, mem=0.7),
            2: make_job(2, tasks=1, mem=0.7),
        }
        decision = AllocationDecision()
        decision.set(1, [5], 0.5)
        decision.set(2, [5], 0.5)
        with pytest.raises(InfeasibleAllocationError) as caught:
            validate_decision(decision, specs, small_cluster)
        # ``job {id}:`` like the structural errors, original text kept.
        assert str(caught.value) == (
            "job 2: node 5: memory 0.7000 + 0.7000 exceeds capacity"
        )
        assert isinstance(caught.value.__cause__, InfeasibleAllocationError)

    def test_cpu_violation_names_the_job(self, small_cluster):
        specs = {
            1: make_job(1, tasks=1, cpu=1.0, mem=0.1),
            2: make_job(2, tasks=1, cpu=1.0, mem=0.1),
        }
        decision = AllocationDecision()
        decision.set(1, [3], 0.8)
        decision.set(2, [3], 0.8)
        with pytest.raises(InfeasibleAllocationError) as caught:
            validate_decision(decision, specs, small_cluster)
        assert str(caught.value) == (
            "job 2: node 3: CPU allocation 0.8000 + 0.8000 exceeds capacity"
        )

    def test_job_views_stand_in_for_specs(self, small_cluster):
        # The engine validates against its per-event JobView snapshots: the
        # validator only reads num_tasks / cpu_need / mem_requirement.
        views = {1: make_view(1, JobState.PENDING, num_tasks=2, cpu_need=0.5)}
        decision = AllocationDecision()
        decision.set(1, [0, 1], 1.0)
        usage = validate_decision(decision, views, small_cluster)
        assert usage.cpu_allocated(0) == pytest.approx(0.5)
        decision.set(1, [0], 1.0)
        with pytest.raises(AllocationError, match="job 1: allocation places 1"):
            validate_decision(decision, views, small_cluster)
