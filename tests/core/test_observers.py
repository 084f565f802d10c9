"""Tests for the engine observer hooks and the built-in recorders."""

from __future__ import annotations

import pytest

from repro.core import (
    Cluster,
    JobSpec,
    ReschedulingPenaltyModel,
    SimEvent,
    SimulationConfig,
    SimulationObserver,
    Simulator,
    UtilizationRecorder,
)
from repro.core.observers import CLOSING_KINDS, EVENT_KINDS
from repro.schedulers import create_scheduler


def _spec(job_id, submit, tasks=1, cpu=0.5, mem=0.2, runtime=100.0):
    return JobSpec(
        job_id=job_id,
        submit_time=submit,
        num_tasks=tasks,
        cpu_need=cpu,
        mem_requirement=mem,
        execution_time=runtime,
    )


def _run(specs, algorithm="greedy-pmtn", nodes=4, penalty=0.0, observers=()):
    cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
    simulator = Simulator(
        cluster,
        create_scheduler(algorithm),
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty)),
        observers=list(observers),
    )
    return simulator.run(specs)


class EventList(list):
    """The plainest observer: every event, in order."""

    on_event = list.append

    def kinds(self, kind=None):
        return [event.kind for event in self if kind is None or event.kind == kind]


class TestSimulationObserverBase:
    def test_base_observer_hooks_are_noops(self):
        event = SimEvent("submit", 0.0, _spec(0, 0.0))
        assert SimulationObserver().on_event(event) is None

    def test_simulation_runs_unchanged_without_observers(self):
        specs = [_spec(0, 0.0), _spec(1, 10.0)]
        result_plain = _run(specs)
        result_observed = _run(specs, observers=[EventList()])
        assert result_plain.max_stretch == pytest.approx(result_observed.max_stretch)
        assert result_plain.makespan == pytest.approx(result_observed.makespan)


class TestEventStream:
    def test_records_submission_start_and_completion(self):
        log = EventList()
        _run([_spec(0, 0.0, runtime=50.0)], observers=[log])
        kinds = log.kinds()
        assert kinds[0] == "run-start" and log[0].cluster.num_nodes == 4
        assert kinds[-1] == "run-end"
        assert [kinds.count(kind) for kind in ("submit", "start", "complete")] == [1, 1, 1]
        assert set(kinds) <= set(EVENT_KINDS)

    def test_submission_precedes_start_which_precedes_completion(self):
        log = EventList()
        _run([_spec(0, 5.0, runtime=40.0)], observers=[log])
        kinds = [event.kind for event in log if event.spec is not None]
        assert kinds == ["submit", "start", "complete"]

    def test_every_job_gets_a_completion_event(self):
        log = EventList()
        specs = [_spec(i, i * 5.0, runtime=30.0 + i) for i in range(6)]
        _run(specs, observers=[log])
        completed = {event.spec.job_id for event in log if event.kind == "complete"}
        assert completed == set(range(6))

    def test_event_times_are_non_decreasing(self):
        log = EventList()
        specs = [_spec(i, i * 3.0, runtime=25.0) for i in range(8)]
        _run(specs, observers=[log])
        times = [event.time for event in log]
        assert times == sorted(times)

    def test_preemption_events_recorded_under_memory_pressure(self):
        # Two memory-heavy jobs on one node force the preempting greedy
        # algorithm to pause one of them when the second arrives.
        log = EventList()
        specs = [
            _spec(0, 0.0, cpu=1.0, mem=0.9, runtime=500.0),
            _spec(1, 10.0, cpu=1.0, mem=0.9, runtime=500.0),
        ]
        _run(specs, algorithm="greedy-pmtn", nodes=1, observers=[log])
        assert log.kinds("preempt") and log.kinds("resume")

    def test_counts_match_simulation_result_costs(self):
        log = EventList()
        specs = [
            _spec(i, i * 2.0, cpu=1.0, mem=0.6, runtime=300.0) for i in range(5)
        ]
        result = _run(specs, algorithm="dynmcb8", nodes=2, observers=[log])
        assert len(log.kinds("preempt")) == result.costs.preemption_count
        assert len(log.kinds("migrate")) == result.costs.migration_count
        assert len(log.kinds("applied")) == len(result.scheduler_times)

    def test_closing_events_vacate_the_nodes_last_taken(self):
        log = EventList()
        specs = [_spec(i, i * 2.0, tasks=2, cpu=1.0, mem=0.6, runtime=300.0) for i in range(5)]
        _run(specs, algorithm="greedy-pmtn-migr", nodes=3, observers=[log])
        held = {}
        for event in log:
            if event.kind in ("start", "resume", "migrate", "yield"):
                if event.kind == "migrate":
                    assert event.old_nodes == held[event.spec.job_id]
                held[event.spec.job_id] = event.nodes
            elif event.kind in CLOSING_KINDS:
                assert event.nodes == held.pop(event.spec.job_id)
        assert not held and "preempt" in log.kinds()


class TestUtilizationRecorder:
    def test_samples_are_recorded_for_every_event(self):
        recorder = UtilizationRecorder()
        specs = [_spec(i, i * 5.0, runtime=40.0) for i in range(5)]
        _run(specs, observers=[recorder])
        assert len(recorder.samples) >= 5  # at least one sample per submission

    def test_memory_never_exceeds_cluster_capacity(self):
        recorder = UtilizationRecorder()
        specs = [_spec(i, i * 1.0, cpu=1.0, mem=0.7, runtime=200.0) for i in range(8)]
        _run(specs, algorithm="dynmcb8", nodes=3, observers=[recorder])
        assert recorder.peak_memory_used() <= 3.0 + 1e-6

    def test_cpu_allocated_never_exceeds_cluster_capacity(self):
        recorder = UtilizationRecorder()
        specs = [_spec(i, i * 1.0, cpu=1.0, mem=0.2, runtime=150.0) for i in range(10)]
        _run(specs, algorithm="dynmcb8", nodes=4, observers=[recorder])
        assert recorder.peak_cpu_allocated() <= 4.0 + 1e-6

    def test_busy_nodes_bounded_by_cluster_size(self):
        recorder = UtilizationRecorder()
        specs = [_spec(i, i * 1.0, tasks=2, runtime=100.0) for i in range(6)]
        _run(specs, nodes=4, observers=[recorder])
        assert recorder.peak_busy_nodes() <= 4

    def test_min_yield_in_unit_interval(self):
        recorder = UtilizationRecorder()
        specs = [_spec(i, i * 1.0, cpu=1.0, mem=0.1, runtime=100.0) for i in range(10)]
        _run(specs, algorithm="greedy-pmtn", nodes=2, observers=[recorder])
        for sample in recorder.samples:
            assert 0.0 < sample.min_yield <= 1.0 + 1e-9

    def test_running_jobs_bounded_by_submitted_jobs(self):
        recorder = UtilizationRecorder()
        specs = [_spec(i, i * 1.0, tasks=2, runtime=100.0) for i in range(6)]
        _run(specs, nodes=4, observers=[recorder])
        counts = [sample.running_jobs for sample in recorder.samples]
        assert 2 <= max(counts) <= len(specs)
        assert min(counts) >= 0

    def test_times_non_decreasing(self):
        recorder = UtilizationRecorder()
        specs = [_spec(i, i * 7.0, runtime=60.0) for i in range(5)]
        _run(specs, observers=[recorder])
        times = [sample.time for sample in recorder.samples]
        assert times == sorted(times)

    def test_empty_recorder_peaks_are_zero(self):
        recorder = UtilizationRecorder()
        assert recorder.peak_busy_nodes() == 0
        assert recorder.peak_cpu_allocated() == 0.0
        assert recorder.peak_memory_used() == 0.0


class TestMultipleObservers:
    def test_all_observers_receive_callbacks(self):
        log, twin = EventList(), EventList()
        util = UtilizationRecorder()
        specs = [_spec(i, i * 5.0, runtime=50.0) for i in range(4)]
        _run(specs, observers=[log, twin, util])
        assert len(log.kinds("complete")) == 4
        assert twin == log
        assert len(util.samples) >= 4

    def test_observer_state_reset_between_runs(self):
        specs = [_spec(0, 0.0, runtime=40.0)]
        util = UtilizationRecorder()
        _run(specs, observers=[util])
        first = list(util.samples)
        _run(specs, observers=[util])
        assert util.samples == first

    def test_custom_observer_subclass_receives_lifecycle(self):
        class Counter(SimulationObserver):
            def __init__(self):
                self.started = 0
                self.completed = 0
                self.ended = False

            def on_event(self, event):
                self.started += event.kind == "start"
                self.completed += event.kind == "complete"
                self.ended = event.kind == "run-end"

        counter = Counter()
        specs = [_spec(i, i * 2.0, runtime=30.0) for i in range(3)]
        _run(specs, observers=[counter])
        assert counter.started >= 3
        assert counter.completed == 3
        assert counter.ended is True
