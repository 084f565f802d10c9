"""The tentpole guarantee: telemetry never changes simulated results.

An instrumented run must make byte-identical placement decisions to an
uninstrumented one — for every paper algorithm, on every driver (``run``,
``run_stream``, and a serving-layer replay).  The disabled path is the
default, so this also pins that enabling telemetry is purely additive.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.obs import Telemetry
from repro.schedulers import PAPER_ALGORITHMS, create_scheduler
from repro.serve import PlacementLogObserver, SchedulerService
from repro.traces import DiurnalPoissonTraceSource

CLUSTER = Cluster(16, 4, 8.0)

#: Sub-critical arrivals with enough churn to exercise preemption and
#: migration paths (the replay-determinism recipe, shortened).
TRACE = DiurnalPoissonTraceSource(
    num_jobs=100,
    seed=11,
    mean_interarrival_seconds=90.0,
    runtime_log_mean=5.0,
    runtime_log_sigma=1.0,
    max_runtime_seconds=7200.0,
    serial_fraction=0.6,
)


def _run_log(algorithm, telemetry):
    observer = PlacementLogObserver()
    config = SimulationConfig(telemetry=telemetry)
    engine = Simulator(
        CLUSTER, create_scheduler(algorithm), config, observers=[observer]
    )
    workload = list(TRACE.jobs(CLUSTER))
    result = engine.run(workload)
    return observer.to_json_bytes(), result, engine


def _stream_log(algorithm, telemetry):
    observer = PlacementLogObserver()
    config = SimulationConfig(streaming_metrics=True, telemetry=telemetry)
    engine = Simulator(
        CLUSTER, create_scheduler(algorithm), config, observers=[observer]
    )
    result = engine.run_stream(TRACE.jobs(CLUSTER))
    return observer.to_json_bytes(), result, engine


def _replay_log(algorithm, telemetry):
    observer = PlacementLogObserver()
    service = SchedulerService(
        CLUSTER,
        algorithm,
        config=SimulationConfig(streaming_metrics=True, telemetry=telemetry),
        observers=[observer],
    )
    report = service.replay(TRACE)
    return observer.to_json_bytes(), report, service


@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
class TestByteIdentity:
    def test_run_is_byte_identical(self, algorithm):
        bare_bytes, bare_result, _ = _run_log(algorithm, None)
        inst_bytes, inst_result, engine = _run_log(algorithm, {"type": "stats"})
        assert inst_bytes == bare_bytes
        assert inst_result.makespan == bare_result.makespan
        assert engine.telemetry is not None
        summary = engine.telemetry.summary()
        assert summary["counters"]["engine.events"] > 0
        assert summary["phases"]["engine.schedule"]["count"] > 0

    def test_run_stream_is_byte_identical(self, algorithm):
        bare_bytes, bare_result, bare_engine = _stream_log(algorithm, None)
        inst_bytes, inst_result, engine = _stream_log(algorithm, {"type": "stats"})
        assert inst_bytes == bare_bytes
        assert inst_result.makespan == bare_result.makespan
        assert engine.events_processed == bare_engine.events_processed
        assert (
            engine.telemetry.summary()["phases"]["engine.stream_intake"]["count"] > 0
        )

    def test_serve_replay_is_byte_identical(self, algorithm):
        bare_bytes, bare_report, _ = _replay_log(algorithm, None)
        inst_bytes, inst_report, service = _replay_log(
            algorithm, {"type": "stats"}
        )
        assert inst_bytes == bare_bytes
        assert inst_report.placements == bare_report.placements
        assert inst_report.completions == bare_report.completions
        assert "telemetry" in service.metrics_snapshot()

    def test_flight_recorder_keeps_run_byte_identical(self, algorithm):
        bare_bytes, _, _ = _run_log(algorithm, None)
        inst_bytes, _, engine = _run_log(
            algorithm, {"type": "stats", "flight": 65_536}
        )
        assert inst_bytes == bare_bytes
        assert len(engine.telemetry.flight) > 0
        assert engine.telemetry.flight.dropped == 0

    def test_flight_recorder_keeps_run_stream_byte_identical(self, algorithm):
        bare_bytes, _, _ = _stream_log(algorithm, None)
        inst_bytes, _, engine = _stream_log(
            algorithm, {"type": "stats", "flight": 65_536}
        )
        assert inst_bytes == bare_bytes
        assert len(engine.telemetry.flight) > 0

    def test_flight_recorder_keeps_serve_replay_byte_identical(self, algorithm):
        bare_bytes, _, _ = _replay_log(algorithm, None)
        inst_bytes, _, service = _replay_log(
            algorithm, {"type": "stats", "flight": 65_536}
        )
        assert inst_bytes == bare_bytes
        assert len(service.telemetry.flight) > 0


class TestInstrumentCoverage:
    def test_tracing_sink_captures_spans(self):
        sink = Telemetry(capture_spans=True)
        _, _, engine = _run_log("greedy-pmtn-migr", sink)
        assert engine.telemetry is sink
        names = {name for name, _, _ in sink.span_events()}
        assert "engine.schedule" in names
        assert "engine.apply" in names

    def test_packer_phases_appear_for_dynmcb8(self):
        _, _, engine = _run_log("dynmcb8", {"type": "stats"})
        assert "packing.mcb8" in engine.telemetry.summary()["phases"]

    def test_disabled_engine_has_no_sink(self):
        _, _, engine = _run_log("fcfs", None)
        assert engine.telemetry is None
