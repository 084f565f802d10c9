"""Engine semantics of node failures: eviction policies, validation, repair."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobSpec
from repro.core.observers import SimulationObserver
from repro.exceptions import SimulationError
from repro.platform import TraceNodeEventSource
from repro.schedulers.registry import create_scheduler


def _trace(*rows):
    return TraceNodeEventSource(events_list=tuple(rows))


def _run(algorithm, specs, cluster, events, policy="resubmit", observers=None,
         penalty=None):
    from repro.core.penalties import ReschedulingPenaltyModel

    config = SimulationConfig(
        node_events=events,
        failure_policy=policy,
        penalty_model=ReschedulingPenaltyModel(penalty or 0.0),
    )
    simulator = Simulator(cluster, create_scheduler(algorithm), config,
                          observers=observers)
    return simulator.run(specs)


class TestResubmitPolicy:
    def test_kill_loses_progress_and_requeues(self):
        # One node, one job; the node fails mid-run and repairs later: the
        # job restarts from scratch at the repair.
        specs = [JobSpec(0, 0.0, 1, 1.0, 0.5, 1000.0)]
        events = _trace((400.0, 0, "down"), (600.0, 0, "up"))
        result = _run("greedy", specs, Cluster(1), events)
        record = result.jobs[0]
        # 400 s of progress lost; full 1000 s re-run after the repair.  The
        # greedy backoff retries may add bounded delay past t=600.
        assert record.completion_time >= 1600.0
        assert result.costs.node_failures == 1
        assert result.costs.failure_job_kills == 1
        assert result.costs.preemption_count == 0

    def test_survivors_are_untouched(self):
        specs = [
            JobSpec(0, 0.0, 1, 0.5, 0.4, 1000.0),
            JobSpec(1, 0.0, 1, 0.5, 0.4, 1000.0),
        ]
        events = _trace((200.0, 0, "down"), (500.0, 0, "up"))
        result = _run("greedy", specs, Cluster(2), events)
        by_id = {record.spec.job_id: record for record in result.jobs}
        # greedy places job 0 on node 0, job 1 on node 1; job 1 is unaffected.
        assert by_id[1].completion_time == 1000.0
        # Job 0 is killed at t=200 and immediately restarts on node 1
        # (memory 0.4 + 0.4 fits), finishing a full run later.
        assert by_id[0].completion_time == pytest.approx(1200.0)
        assert result.costs.failure_job_kills == 1

    def test_batch_scheduler_requeues_killed_jobs(self):
        specs = [
            JobSpec(0, 0.0, 1, 0.5, 0.4, 1000.0),
            JobSpec(1, 0.0, 1, 0.5, 0.4, 1000.0),
        ]
        events = _trace((200.0, 0, "down"), (500.0, 0, "up"))
        result = _run("fcfs", specs, Cluster(2), events)
        by_id = {record.spec.job_id: record for record in result.jobs}
        assert by_id[1].completion_time == 1000.0
        # FCFS never co-locates: the killed job waits for its node to repair.
        assert by_id[0].completion_time == pytest.approx(1500.0)


class TestMigratePolicy:
    def test_checkpoint_keeps_progress(self):
        specs = [
            JobSpec(0, 0.0, 1, 0.5, 0.4, 1000.0),
            JobSpec(1, 0.0, 1, 0.5, 0.4, 1000.0),
        ]
        # dynmcb8 packs both jobs onto node 0; it fails at t=200.
        events = _trace((200.0, 0, "down"), (500.0, 0, "up"))
        result = _run("dynmcb8", specs, Cluster(2), events, policy="migrate")
        # Both checkpoint at 200 and resume on node 1 within the same event:
        # 800 s of work remain, so both finish at 1000.
        for record in result.jobs:
            assert record.completion_time == pytest.approx(1000.0)
            assert record.preemptions == 1
        assert result.costs.preemption_count == 2
        assert result.costs.failure_job_kills == 0

    def test_resume_penalty_is_charged(self):
        specs = [
            JobSpec(0, 0.0, 1, 0.5, 0.4, 1000.0),
            JobSpec(1, 0.0, 1, 0.5, 0.4, 1000.0),
        ]
        events = _trace((200.0, 0, "down"), (500.0, 0, "up"))
        no_penalty = _run("dynmcb8", specs, Cluster(2), events, policy="migrate")
        with_penalty = _run(
            "dynmcb8", specs, Cluster(2), events, policy="migrate", penalty=300.0
        )
        assert with_penalty.makespan >= no_penalty.makespan + 299.0


class TestEngineGuards:
    def test_migrate_policy_needs_a_resuming_scheduler(self):
        # Plain greedy (and the batch baselines) never resume paused jobs;
        # checkpointed failure victims would starve, so the run must fail
        # fast with a targeted error, not a generic mid-run deadlock.
        for algorithm in ("greedy", "fcfs", "gang"):
            config = SimulationConfig(
                node_events=_trace((100.0, 0, "down"), (200.0, 0, "up")),
                failure_policy="migrate",
            )
            simulator = Simulator(Cluster(2), create_scheduler(algorithm), config)
            with pytest.raises(SimulationError, match="never resumes"):
                simulator.run([JobSpec(0, 0.0, 1, 0.5, 0.4, 1000.0)])

    def test_failure_counters_reach_campaign_rows(self):
        from repro.campaign import Campaign
        from repro.campaign.scenario import LublinSource, Scenario
        from repro.platform import HomogeneousPlatform, TraceNodeEventSource

        scenario = Scenario(
            name="failure-metrics",
            source=LublinSource(num_traces=1, num_jobs=20),
            algorithms=("greedy",),
            platform=HomogeneousPlatform(
                nodes=16,
                events=TraceNodeEventSource(
                    events_list=((500.0, 0, "down"), (1500.0, 0, "up"))
                ),
            ),
            collectors=("costs",),
        )
        row = Campaign().run(scenario).rows[0]
        assert row.metric("node_failures") == 1
        assert row.metric("failure_job_kills") >= 0

    def test_unknown_failure_policy_rejected(self):
        config = SimulationConfig(
            node_events=_trace((1.0, 0, "down")), failure_policy="explode"
        )
        simulator = Simulator(Cluster(2), create_scheduler("greedy"), config)
        with pytest.raises(SimulationError, match="failure_policy"):
            simulator.run([JobSpec(0, 0.0, 1, 0.5, 0.4, 10.0)])

    def test_permanently_infeasible_job_fails_fast(self):
        # 4 tasks of memory 0.6: the two half-memory nodes host none and the
        # two full nodes host one each — the job could back off forever, so
        # registration must reject it instead of livelocking the run.
        cluster = Cluster(4, mem_capacities=(1.0, 1.0, 0.5, 0.5))
        simulator = Simulator(cluster, create_scheduler("greedy"), SimulationConfig())
        with pytest.raises(SimulationError, match="permanently infeasible"):
            simulator.run([JobSpec(0, 0.0, 4, 0.2, 0.6, 100.0)])

    def test_co_location_counts_toward_feasibility(self):
        # The same cluster hosts 2 + 2 + 1 + 1 = 6 tasks of memory 0.45.
        cluster = Cluster(4, mem_capacities=(1.0, 1.0, 0.5, 0.5))
        simulator = Simulator(cluster, create_scheduler("greedy"), SimulationConfig())
        result = simulator.run([JobSpec(0, 0.0, 6, 0.1, 0.45, 100.0)])
        assert result.num_jobs == 1

    def test_batch_on_heterogeneous_cluster_runs(self):
        # Batch baselines are node-class aware: a full-CPU task only lands
        # on nodes with enough CPU capacity, so the job must run on node 0.
        cluster = Cluster(2, cpu_capacities=(2.0, 0.5))
        simulator = Simulator(cluster, create_scheduler("easy"), SimulationConfig())
        result = simulator.run([JobSpec(0, 0.0, 1, 1.0, 0.4, 10.0)])
        assert result.num_jobs == 1
        assert result.jobs[0].completion_time == pytest.approx(10.0)

    def test_batch_job_wider_than_eligible_nodes_fails_fast(self):
        # Two full-CPU tasks but only one node can host one: the batch queue
        # would never start the job, so registration rejects it instead of
        # livelocking the run.
        cluster = Cluster(2, cpu_capacities=(2.0, 0.5))
        simulator = Simulator(cluster, create_scheduler("easy"), SimulationConfig())
        with pytest.raises(SimulationError, match="can host"):
            simulator.run([JobSpec(0, 0.0, 2, 1.0, 0.4, 10.0)])

    def test_pre_start_events_set_initial_availability(self):
        # Node 0 is already down when the first job arrives (event before the
        # first submission); the job must run on node 1.
        specs = [JobSpec(0, 100.0, 1, 0.5, 0.4, 50.0)]
        events = _trace((10.0, 0, "down"))

        class _StartRecorder(SimulationObserver):
            nodes = None

            def on_event(self, event):
                if event.kind == "start":
                    self.nodes = event.nodes

        recorder = _StartRecorder()
        result = _run("greedy", specs, Cluster(2), events, observers=[recorder])
        assert recorder.nodes == (1,)
        assert result.jobs[0].completion_time == pytest.approx(150.0)

    def test_down_nodes_leave_the_idle_integral(self):
        # One job on node 1 for 100 s while node 0 is down the whole time:
        # zero idle node-seconds (node 1 busy, node 0 down).
        specs = [JobSpec(0, 0.0, 1, 1.0, 0.5, 100.0)]
        events = _trace((0.0, 1, "down"))
        result = _run("greedy", specs, Cluster(2), events)
        assert result.idle_node_seconds == pytest.approx(0.0)


class _EventList(list):
    on_event = list.append


def _summary(events):
    """``(kind, time, job id or node)`` of every event but the decision markers."""
    return [
        (e.kind, e.time, e.spec.job_id if e.spec is not None else e.node)
        for e in events
        if e.kind not in ("run-start", "applied", "run-end")
    ]


class TestObserverHooks:
    def test_node_hooks_and_eviction_notifications(self):
        specs = [JobSpec(0, 0.0, 1, 1.0, 0.5, 1000.0)]
        for policy, eviction in (("resubmit", "failure-kill"), ("migrate", "checkpoint")):
            events = _EventList()
            _run(
                "greedy-pmtn", specs, Cluster(1),
                _trace((400.0, 0, "down"), (600.0, 0, "up")), policy, observers=[events],
            )
            assert _summary(events)[:5] == [
                ("submit", 0.0, 0),
                ("start", 0.0, 0),
                ("node-down", 400.0, 0),
                (eviction, 400.0, 0),
                ("node-up", 600.0, 0),
            ]
            evicted = next(e for e in events if e.kind == eviction)
            assert (evicted.nodes, evicted.node) == ((0,), 0)

    def test_nodes_down_before_the_first_submission_are_announced_first(self):
        # Nodes 2 and 0 fail before the first job arrives (t=50); node 0 is
        # repaired at t=20, still before it.  Only node 2 is down when the
        # run begins, so it is announced once, at t=50, right after
        # run-start and before the first submission.
        specs = [JobSpec(0, 50.0, 1, 1.0, 0.5, 100.0)]
        events = _trace((0.0, 2, "down"), (10.0, 0, "down"), (20.0, 0, "up"))
        log = _EventList()
        _run("greedy", specs, Cluster(3), events, observers=[log])
        assert [(e.kind, e.time) for e in log[:3]] == [
            ("run-start", 50.0), ("node-down", 50.0), ("submit", 50.0)
        ]
        assert log[1].node == 2
