"""Tests for the per-job flight recorder (repro.obs.flight).

The load-bearing guarantees: the recorded events cover the failure paths
with their causes, the ring buffer drops oldest-first without crashing, and
the Chrome-trace export is well-formed trace-event JSON.  That the three
drivers (``run``, ``run_stream``, serve replay) record the same sequence is
oracle (ii) of ``tests/generated``: they emit the same engine event stream,
of which the flight log is a projection (this fixture is its
``diurnal80-migrate-failures`` recipe).
"""

from __future__ import annotations

import json

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobSpec
from repro.exceptions import ConfigurationError
from repro.obs import Telemetry
from repro.obs.flight import (
    EVENT_KINDS,
    FlightRecorder,
    flight_trace_events,
    write_flight_jsonl,
    write_flight_trace,
)
from repro.platform.events import ExponentialFailureSource
from repro.schedulers.registry import create_scheduler
from repro.traces import DiurnalPoissonTraceSource

CLUSTER = Cluster(16, 4, 8.0)
ALGORITHM = "greedy-pmtn-migr"

TRACE = DiurnalPoissonTraceSource(
    num_jobs=80,
    seed=11,
    mean_interarrival_seconds=90.0,
    runtime_log_mean=5.0,
    runtime_log_sigma=1.0,
    max_runtime_seconds=7200.0,
    serial_fraction=0.6,
)

FAILURES = ExponentialFailureSource(
    mtbf_seconds=20_000.0,
    mttr_seconds=2_000.0,
    horizon_seconds=40_000.0,
    seed=3,
)


def _flight_sink(capacity=1_000_000):
    sink = Telemetry(capture_spans=False)
    sink.flight = FlightRecorder(capacity)
    return sink


def _failure_config(**kwargs):
    return SimulationConfig(
        node_events=FAILURES, failure_policy="migrate", **kwargs
    )


def _run_events():
    sink = _flight_sink()
    engine = Simulator(
        CLUSTER,
        create_scheduler(ALGORITHM),
        _failure_config(telemetry=sink),
    )
    engine.run(list(TRACE.jobs(CLUSTER)))
    return sink.flight.events()


@pytest.fixture(scope="module")
def run_events():
    return _run_events()


class TestDriverParity:
    def test_failure_paths_are_exercised(self, run_events):
        kinds = {event.kind for event in run_events}
        # The fixture must cover the interesting transitions, or the parity
        # assertions below prove nothing.
        assert {"submit", "start", "complete", "preempt", "resume"} <= kinds
        assert "checkpoint" in kinds or "failure-kill" in kinds
        causes = {event.cause for event in run_events}
        assert any(cause.startswith("node-failure:") for cause in causes)

    def test_event_kinds_are_in_vocabulary(self, run_events):
        assert {event.kind for event in run_events} <= set(EVENT_KINDS)

    def test_closing_events_carry_vacated_nodes(self, run_events):
        started = {
            event.job_id for event in run_events if event.kind == "start"
        }
        for event in run_events:
            if event.kind in ("preempt", "checkpoint", "failure-kill"):
                if event.job_id in started:
                    assert event.nodes, event


class TestRingBuffer:
    def test_overflow_drops_oldest_without_crashing(self):
        recorder = FlightRecorder(capacity=10)
        for i in range(25):
            recorder.record(float(i), "submit", i)
        assert len(recorder) == 10
        assert recorder.dropped == 15
        times = [event.time for event in recorder.events()]
        assert times == [float(i) for i in range(15, 25)]

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=-5)

    def test_engine_run_with_tiny_ring_survives(self):
        sink = _flight_sink(capacity=16)
        engine = Simulator(
            CLUSTER,
            create_scheduler(ALGORITHM),
            _failure_config(telemetry=sink),
        )
        engine.run(list(TRACE.jobs(CLUSTER)))
        assert len(sink.flight) == 16
        assert sink.flight.dropped > 0
        # The ring keeps the latest window of history.
        full = _run_events()
        assert sink.flight.events() == full[-16:]

    def test_query_helpers(self):
        recorder = FlightRecorder(capacity=100)
        recorder.record(0.0, "submit", 1)
        recorder.record(1.0, "start", 1, nodes=(0,), cause="scheduler")
        recorder.record(0.5, "submit", 2)
        assert [e.kind for e in recorder.events_of_job(1)] == [
            "submit",
            "start",
        ]
        assert len(recorder.events_of_kind("submit")) == 2


    def test_online_cancel_closes_the_running_interval(self):
        sink = _flight_sink()
        engine = Simulator(Cluster(2), create_scheduler("fcfs"), SimulationConfig(telemetry=sink))
        engine.online_begin(0.0)
        engine.online_submit(JobSpec(0, 0.0, 1, 1.0, 0.1, 100.0))
        engine.online_step()
        engine.online_cancel(0)
        assert [(event.kind, event.nodes) for event in sink.flight.events()] == [
            ("submit", ()),
            ("start", (0,)),
            ("cancel", (0,)),
        ]


class TestExports:
    def test_jsonl_roundtrip(self, run_events, tmp_path):
        sink = _flight_sink()
        engine = Simulator(
            CLUSTER,
            create_scheduler(ALGORITHM),
            _failure_config(telemetry=sink),
        )
        engine.run(list(TRACE.jobs(CLUSTER)))
        path = tmp_path / "flight.jsonl"
        count = write_flight_jsonl(sink.flight, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert count == len(lines) == len(run_events)
        for line, event in zip(lines, run_events):
            assert json.loads(line) == event.to_dict()

    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path):
        sink = _flight_sink()
        engine = Simulator(
            CLUSTER,
            create_scheduler(ALGORITHM),
            _failure_config(telemetry=sink),
        )
        engine.run(list(TRACE.jobs(CLUSTER)))
        path = tmp_path / "flight.json"
        write_flight_trace(sink.flight, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["events"] == len(sink.flight)
        assert payload["otherData"]["dropped"] == 0
        phases = set()
        for event in payload["traceEvents"]:
            phases.add(event["ph"])
            assert event["ph"] in ("M", "X", "i")
            assert isinstance(event["name"], str)
            assert event["pid"] == 1
            if event["ph"] == "M":
                assert "name" in event["args"]
            else:
                assert isinstance(event["ts"], float)
                assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] == "i":
                assert event["s"] == "t"
        assert phases == {"M", "X", "i"}

    def test_every_job_gets_a_lane(self):
        recorder = FlightRecorder(capacity=100)
        recorder.record(0.0, "submit", 7)
        recorder.record(1.0, "start", 7, nodes=(2,), cause="scheduler")
        recorder.record(5.0, "complete", 7, nodes=(2,))
        events = flight_trace_events(recorder)
        lanes = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert [lane["tid"] for lane in lanes] == [7]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["ts"] == pytest.approx(1e6)
        assert slices[0]["dur"] == pytest.approx(4e6)
        assert slices[0]["args"]["until"] == "complete"

    def test_truncated_ring_still_exports_closed_slices(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(0.0, "submit", 1)
        recorder.record(1.0, "start", 1, nodes=(0,), cause="scheduler")
        recorder.record(2.0, "resume", 2, nodes=(1,), cause="scheduler")
        events = flight_trace_events(recorder)
        slices = [e for e in events if e["ph"] == "X"]
        # Both open slices are closed at the last recorded instant.
        assert {s["args"]["until"] for s in slices} == {"open"}
        assert all(s["dur"] >= 0.0 for s in slices)
