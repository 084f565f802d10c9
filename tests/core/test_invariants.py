"""Tests for the invariant-checking observer."""

from __future__ import annotations

import pytest

from repro.core import (
    Cluster,
    InvariantCheckingObserver,
    JobSpec,
    ReschedulingPenaltyModel,
    SimEvent,
    SimulationConfig,
    Simulator,
)
from repro.exceptions import SimulationError
from repro.platform import ExponentialFailureSource
from repro.schedulers import create_scheduler
from repro.traces import LublinWorkloadGenerator, scale_to_load


def _spec(job_id, submit=0.0, tasks=1, cpu=0.5, mem=0.2, runtime=60.0):
    return JobSpec(job_id, submit, tasks, cpu, mem, runtime)


def _feed(checker, *events):
    """Hand the checker each event (or ``SimEvent`` field tuple) in turn."""
    for event in events:
        checker.on_event(event if isinstance(event, SimEvent) else SimEvent(*event))


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
            def on_event(self, event):
                super().on_event(event)
                if event.kind == "applied":
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
        checker.on_event(SimEvent("run-start", 0.0, cluster=Cluster(num_nodes=num_nodes)))
        return checker

    def _running(self, spec, nodes=(0,), yield_value=1.0, num_nodes=2):
        checker = self._started_checker(num_nodes)
        _feed(checker, ("submit", 0.0, spec), ("start", 0.0, spec, nodes, yield_value))
        return checker

    def _rejects(self, checker, *event, match=None):
        with pytest.raises(SimulationError, match=match):
            _feed(checker, event)

    def test_duplicate_submission_rejected(self):
        checker = self._started_checker()
        _feed(checker, ("submit", 0.0, _spec(0)))
        self._rejects(checker, "submit", 1.0, _spec(0))

    def test_submission_before_release_time_rejected(self):
        self._rejects(self._started_checker(), "submit", 0.0, _spec(0, submit=100.0))

    def test_start_before_submission_rejected(self):
        self._rejects(self._started_checker(), "start", 0.0, _spec(0), (0,), 1.0)

    def test_start_with_wrong_task_count_rejected(self):
        spec = _spec(0, tasks=2)
        checker = self._started_checker()
        _feed(checker, ("submit", 0.0, spec))
        self._rejects(checker, "start", 0.0, spec, (0,), 1.0, match="1 tasks instead of 2")

    def test_resume_with_wrong_task_count_rejected(self):
        spec = _spec(0, tasks=2)
        checker = self._running(spec, (0, 1))
        _feed(checker, ("preempt", 10.0, spec, (0, 1)))
        self._rejects(checker, "resume", 20.0, spec, (1,), 1.0, match="1 tasks instead of 2")

    def test_completion_without_start_rejected(self):
        checker = self._started_checker()
        _feed(checker, ("submit", 0.0, _spec(0)))
        self._rejects(checker, "complete", 10.0, _spec(0), (0,), match="while not running")

    def test_resume_of_a_job_that_never_started_rejected(self):
        checker = self._started_checker()
        _feed(checker, ("submit", 0.0, _spec(0)))
        self._rejects(checker, "resume", 0.0, _spec(0), (0,), 1.0, match="without having")

    def test_start_of_a_running_job_rejected(self):
        self._rejects(self._running(_spec(0)), "start", 5.0, _spec(0), (1,), 1.0)

    @pytest.mark.parametrize(
        "kind", ["preempt", "checkpoint", "failure-kill", "migrate", "yield", "complete"]
    )
    def test_acting_on_a_job_that_is_not_running_rejected(self, kind):
        spec = _spec(0)
        checker = self._started_checker()
        _feed(checker, ("submit", 0.0, spec))
        self._rejects(checker, kind, 0.0, spec, (0,), 1.0, match="while not running")
        checker = self._running(spec)
        _feed(checker, ("preempt", 10.0, spec, (0,)))
        self._rejects(checker, kind, 10.0, spec, (1,), 1.0, match="while not running")

    def test_migration_from_nodes_the_job_did_not_hold_rejected(self):
        spec = _spec(0, tasks=2)
        checker = self._running(spec, (0, 1), num_nodes=4)
        with pytest.raises(SimulationError, match="from nodes"):
            checker.on_event(SimEvent("migrate", 10.0, spec, (2, 3), 1.0, old_nodes=(1, 0)))

    def test_fake_migration_to_same_nodes_rejected(self):
        spec = _spec(0, tasks=2)
        checker = self._running(spec, (0, 1))
        with pytest.raises(SimulationError, match="same node multiset"):
            checker.on_event(SimEvent("migrate", 10.0, spec, (1, 0), 1.0, old_nodes=(0, 1)))

    def test_yield_change_from_a_stale_yield_rejected(self):
        spec = _spec(0)
        checker = self._running(spec, yield_value=0.5)
        with pytest.raises(SimulationError, match="yield changed from 1.0"):
            checker.on_event(SimEvent("yield", 10.0, spec, (0,), 0.8, old_yield=1.0))

    @pytest.mark.parametrize("kind", ["preempt", "checkpoint", "failure-kill", "complete"])
    def test_closing_event_vacating_other_nodes_rejected(self, kind):
        checker = self._running(_spec(0), (1,))
        self._rejects(checker, kind, 10.0, _spec(0), (0,), match="vacated nodes")

    def test_cancel_vacates_what_the_job_held(self):
        checker = self._running(_spec(0), (1,))
        self._rejects(checker, "cancel", 10.0, _spec(0), (), match="vacated nodes")
        checker = self._started_checker()
        _feed(checker, ("submit", 0.0, _spec(0)), ("cancel", 0.0, _spec(0)))
        _feed(checker, ("run-end", 0.0))

    def test_double_completion_rejected(self):
        checker = self._running(_spec(0))
        _feed(checker, ("complete", 60.0, _spec(0), (0,)))
        self._rejects(checker, "complete", 61.0, _spec(0), (0,))

    def test_action_after_completion_rejected(self):
        checker = self._running(_spec(0))
        _feed(checker, ("complete", 60.0, _spec(0), (0,)))
        self._rejects(checker, "preempt", 70.0, _spec(0), (0,), match="after completing")

    def test_time_going_backwards_rejected(self):
        checker = self._started_checker()
        _feed(checker, ("submit", 10.0, _spec(0)))
        self._rejects(checker, "submit", 5.0, _spec(1), match="backwards")

    def test_memory_oversubscription_detected(self):
        checker = self._started_checker(num_nodes=1)
        for spec in (_spec(0, mem=0.6), _spec(1, mem=0.6)):
            _feed(checker, ("submit", 0.0, spec), ("start", 0.0, spec, (0,), 0.5))
        self._rejects(checker, "applied", 0.0, match="memory oversubscribed")

    def test_cpu_oversubscription_detected(self):
        checker = self._started_checker(num_nodes=1)
        for spec in (_spec(0, cpu=1.0, mem=0.1), _spec(1, cpu=1.0, mem=0.1)):
            _feed(checker, ("submit", 0.0, spec), ("start", 0.0, spec, (0,), 0.9))
        self._rejects(checker, "applied", 0.0, match="CPU oversubscribed")

    def test_allocation_on_out_of_range_node_rejected(self):
        checker = self._running(_spec(0), (5,))
        self._rejects(checker, "applied", 0.0, match="outside the cluster")

    def test_allocation_on_down_node_rejected_until_repair(self):
        spec = _spec(0)
        checker = self._running(spec, (1,))
        _feed(
            checker,
            ("applied", 0.0),
            SimEvent("node-down", 10.0, node=1),
            ("checkpoint", 10.0, spec, (1,)),
            ("resume", 10.0, spec, (0,), 1.0),
            ("applied", 10.0),
            ("migrate", 10.0, spec, (1,), 1.0, (0,)),
        )
        self._rejects(checker, "applied", 10.0, match="down node 1")
        _feed(checker, SimEvent("node-up", 20.0, node=1), ("applied", 20.0))

    def test_unfinished_jobs_at_end_rejected(self):
        checker = self._started_checker()
        _feed(checker, ("submit", 0.0, _spec(0)))
        self._rejects(checker, "run-end", 100.0, match="unfinished")

    def test_clean_run_passes(self):
        checker = self._running(_spec(0))
        _feed(
            checker,
            ("applied", 0.0),
            ("complete", 60.0, _spec(0), (0,)),
            ("applied", 60.0),
            ("run-end", 60.0),
        )
        assert checker.checked_events == 2
