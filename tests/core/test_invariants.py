"""Tests for the invariant-checking observer."""

from __future__ import annotations

import pytest

from repro.core import (
    Cluster,
    InvariantCheckingObserver,
    JobAllocation,
    JobSpec,
    ReschedulingPenaltyModel,
    SimulationConfig,
    Simulator,
)
from repro.exceptions import SimulationError
from repro.platform import ExponentialFailureSource
from repro.schedulers import PAPER_ALGORITHMS, create_scheduler
from repro.traces import LublinWorkloadGenerator, scale_to_load


def _spec(job_id, submit=0.0, tasks=1, cpu=0.5, mem=0.2, runtime=60.0):
    return JobSpec(job_id, submit, tasks, cpu, mem, runtime)


def _alloc(nodes, yield_value=1.0):
    return JobAllocation.create(nodes, yield_value)


class TestEndToEndWithRealSchedulers:
    @pytest.mark.parametrize("algorithm", ["fcfs", "easy", "conservative", "greedy",
                                           "greedy-pmtn", "greedy-pmtn-migr", "dynmcb8",
                                           "dynmcb8-per-600", "dynmcb8-asap-per-600",
                                           "dynmcb8-stretch-per-600",
                                           "dynmcb8-asap-weighted-per-600"])
    def test_paper_and_extension_algorithms_satisfy_invariants(self, algorithm):
        cluster = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)
        workload = LublinWorkloadGenerator(cluster).generate(40, seed=17)
        workload = scale_to_load(workload, 0.7)
        checker = InvariantCheckingObserver()
        result = Simulator(
            cluster,
            create_scheduler(algorithm),
            SimulationConfig(penalty_model=ReschedulingPenaltyModel(300.0)),
            observers=[checker],
        ).run(workload.jobs)
        assert result.num_jobs == workload.num_jobs
        assert checker.checked_events > 0

    def test_checker_resets_between_runs(self):
        cluster = Cluster(num_nodes=4)
        checker = InvariantCheckingObserver()
        specs = [_spec(0), _spec(1, submit=5.0)]
        for _ in range(2):
            Simulator(
                cluster, create_scheduler("greedy-pmtn"), SimulationConfig(), observers=[checker]
            ).run(specs)
        assert checker.checked_events > 0

    def test_checker_keeps_only_the_specs_of_active_jobs(self):
        # Streaming campaigns run the checker too: a completed job's spec is
        # dropped, so spec memory follows the active set, not the trace.
        cluster = Cluster(num_nodes=4)
        active = []

        class Sampling(InvariantCheckingObserver):
            def on_allocation_applied(self, time, running):
                super().on_allocation_applied(time, running)
                active.append(len(self._specs))

        checker = Sampling()
        specs = [_spec(i, submit=100.0 * i) for i in range(20)]
        Simulator(
            cluster, create_scheduler("greedy-pmtn"), SimulationConfig(), observers=[checker]
        ).run(specs)
        assert checker._specs == {}
        assert max(active) < len(specs)
        assert checker._completed == set(range(20))


class TestNodeFailuresWithRealSchedulers:
    """Failure injection with the checker attached: no task on a down node."""

    @pytest.mark.parametrize("repack_on_failure", [False, True])
    @pytest.mark.parametrize("policy", ["resubmit", "migrate"])
    @pytest.mark.parametrize("algorithm", ["greedy-pmtn-migr", "dynmcb8-asap-per-600"])
    def test_no_allocation_survives_on_a_down_node(
        self, algorithm, policy, repack_on_failure
    ):
        cluster = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)
        workload = scale_to_load(
            LublinWorkloadGenerator(cluster).generate(40, seed=17), 0.7
        )
        horizon = max(spec.submit_time for spec in workload.jobs)
        checker = InvariantCheckingObserver()
        result = Simulator(
            cluster,
            create_scheduler(algorithm),
            SimulationConfig(
                penalty_model=ReschedulingPenaltyModel(300.0),
                node_events=ExponentialFailureSource(
                    mtbf_seconds=horizon / 2.0,
                    mttr_seconds=horizon / 20.0,
                    horizon_seconds=horizon,
                    seed=5,
                ),
                failure_policy=policy,
                repack_on_failure=repack_on_failure,
            ),
            observers=[checker],
        ).run(workload.jobs)
        assert result.num_jobs == workload.num_jobs
        assert result.costs.node_failures > 0
        assert checker.checked_events > 0


class TestManualViolationDetection:
    """Drive the observer by hand to check every violation is caught."""

    def _started_checker(self, num_nodes=2):
        checker = InvariantCheckingObserver()
        checker.on_simulation_start(Cluster(num_nodes=num_nodes), 0.0)
        return checker

    def test_duplicate_submission_rejected(self):
        checker = self._started_checker()
        spec = _spec(0)
        checker.on_job_submitted(0.0, spec)
        with pytest.raises(SimulationError):
            checker.on_job_submitted(1.0, spec)

    def test_submission_before_release_time_rejected(self):
        checker = self._started_checker()
        with pytest.raises(SimulationError):
            checker.on_job_submitted(0.0, _spec(0, submit=100.0))

    def test_start_before_submission_rejected(self):
        checker = self._started_checker()
        with pytest.raises(SimulationError):
            checker.on_job_started(0.0, _spec(0), _alloc((0,)))

    def test_start_with_wrong_task_count_rejected(self):
        checker = self._started_checker()
        spec = _spec(0, tasks=2)
        checker.on_job_submitted(0.0, spec)
        with pytest.raises(SimulationError):
            checker.on_job_started(0.0, spec, _alloc((0,)))

    def test_completion_without_start_rejected(self):
        checker = self._started_checker()
        spec = _spec(0)
        checker.on_job_submitted(0.0, spec)
        with pytest.raises(SimulationError):
            checker.on_job_completed(10.0, spec)

    def test_double_completion_rejected(self):
        checker = self._started_checker()
        spec = _spec(0)
        checker.on_job_submitted(0.0, spec)
        checker.on_job_started(0.0, spec, _alloc((0,)))
        checker.on_job_completed(60.0, spec)
        with pytest.raises(SimulationError):
            checker.on_job_completed(61.0, spec)

    def test_action_after_completion_rejected(self):
        checker = self._started_checker()
        spec = _spec(0)
        checker.on_job_submitted(0.0, spec)
        checker.on_job_started(0.0, spec, _alloc((0,)))
        checker.on_job_completed(60.0, spec)
        with pytest.raises(SimulationError):
            checker.on_job_preempted(70.0, spec)

    def test_time_going_backwards_rejected(self):
        checker = self._started_checker()
        checker.on_job_submitted(10.0, _spec(0, submit=0.0))
        with pytest.raises(SimulationError):
            checker.on_job_submitted(5.0, _spec(1, submit=0.0))

    def test_fake_migration_to_same_nodes_rejected(self):
        checker = self._started_checker()
        spec = _spec(0, tasks=2)
        checker.on_job_submitted(0.0, spec)
        checker.on_job_started(0.0, spec, _alloc((0, 1)))
        with pytest.raises(SimulationError):
            checker.on_job_migrated(10.0, spec, (1, 0), _alloc((0, 1)))

    def test_memory_oversubscription_detected(self):
        checker = self._started_checker(num_nodes=1)
        heavy = [_spec(i, mem=0.6) for i in range(2)]
        for spec in heavy:
            checker.on_job_submitted(0.0, spec)
        with pytest.raises(SimulationError):
            checker.on_allocation_applied(
                0.0, {0: _alloc((0,), 0.5), 1: _alloc((0,), 0.5)}
            )

    def test_cpu_oversubscription_detected(self):
        checker = self._started_checker(num_nodes=1)
        for i in range(2):
            checker.on_job_submitted(0.0, _spec(i, cpu=1.0, mem=0.1))
        with pytest.raises(SimulationError):
            checker.on_allocation_applied(
                0.0, {0: _alloc((0,), 0.9), 1: _alloc((0,), 0.9)}
            )

    def test_allocation_for_unknown_job_rejected(self):
        checker = self._started_checker()
        with pytest.raises(SimulationError):
            checker.on_allocation_applied(0.0, {42: _alloc((0,))})

    def test_allocation_on_out_of_range_node_rejected(self):
        checker = self._started_checker(num_nodes=2)
        checker.on_job_submitted(0.0, _spec(0))
        with pytest.raises(SimulationError):
            checker.on_allocation_applied(0.0, {0: _alloc((5,))})

    def test_allocation_on_down_node_rejected_until_repair(self):
        checker = self._started_checker(num_nodes=2)
        checker.on_job_submitted(0.0, _spec(0))
        checker.on_allocation_applied(0.0, {0: _alloc((1,))})
        checker.on_node_down(10.0, 1)
        checker.on_allocation_applied(10.0, {0: _alloc((0,))})
        with pytest.raises(SimulationError, match="down node 1"):
            checker.on_allocation_applied(10.0, {0: _alloc((1,))})
        checker.on_node_up(20.0, 1)
        checker.on_allocation_applied(20.0, {0: _alloc((1,))})

    def test_completed_job_holding_allocation_rejected(self):
        checker = self._started_checker()
        spec = _spec(0)
        checker.on_job_submitted(0.0, spec)
        checker.on_job_started(0.0, spec, _alloc((0,)))
        checker.on_job_completed(60.0, spec)
        with pytest.raises(SimulationError):
            checker.on_allocation_applied(61.0, {0: _alloc((0,))})

    def test_unfinished_jobs_at_end_rejected(self):
        checker = self._started_checker()
        checker.on_job_submitted(0.0, _spec(0))
        with pytest.raises(SimulationError):
            checker.on_simulation_end(100.0)

    def test_clean_run_passes(self):
        checker = self._started_checker()
        spec = _spec(0)
        checker.on_job_submitted(0.0, spec)
        checker.on_job_started(0.0, spec, _alloc((0,)))
        checker.on_allocation_applied(0.0, {0: _alloc((0,))})
        checker.on_job_completed(60.0, spec)
        checker.on_allocation_applied(60.0, {})
        checker.on_simulation_end(60.0)
        assert checker.checked_events == 2
