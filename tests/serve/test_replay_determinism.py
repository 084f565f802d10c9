"""Service replay decides the same at any clock acceleration.

The serving layer changes *when* decisions are made in wall time, never
*what* they are in simulated time.  Replay ≡ ``run_stream`` on the placement
log bytes is one of the oracles of ``tests/generated/test_scenarios.py``.
"""

from __future__ import annotations

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.serve import PlacementLogObserver, SchedulerService
from repro.traces import DiurnalPoissonTraceSource

CLUSTER = Cluster(16, 4, 8.0)

#: Sub-critical arrivals (same recipe as the streaming-metrics benchmarks):
#: enough churn to exercise preemption/migration paths without backlog.
TRACE = DiurnalPoissonTraceSource(
    num_jobs=150,
    seed=11,
    mean_interarrival_seconds=90.0,
    runtime_log_mean=5.0,
    runtime_log_sigma=1.0,
    max_runtime_seconds=7200.0,
    serial_fraction=0.6,
)


def _config():
    return SimulationConfig(streaming_metrics=True)


class TestReplayMatchesRunStream:
    def test_accelerated_wall_clock_makes_identical_decisions(self):
        # A few-job trace keeps the real-time pacing negligible even at
        # x1e6; the decisions must still match the simulated-clock run.
        trace = DiurnalPoissonTraceSource(
            num_jobs=10,
            seed=11,
            mean_interarrival_seconds=90.0,
            runtime_log_mean=5.0,
            runtime_log_sigma=1.0,
            max_runtime_seconds=7200.0,
            serial_fraction=0.6,
        )
        def log_for(acceleration):
            observer = PlacementLogObserver()
            service = SchedulerService(
                CLUSTER,
                "dynmcb8-asap-per-600",
                config=_config(),
                observers=[observer],
            )
            report = service.replay(trace, acceleration=acceleration)
            return observer.to_json_bytes(), report

        simulated_bytes, simulated_report = log_for(None)
        wall_bytes, wall_report = log_for(1_000_000.0)
        assert wall_bytes == simulated_bytes
        assert simulated_report.clock == "simulated"
        assert wall_report.clock == "wall"
        assert wall_report.acceleration == 1_000_000.0
        assert wall_report.completions == simulated_report.completions

    def test_report_and_bench_payload_shape(self):
        from repro.serve import bench_payload

        service = SchedulerService(CLUSTER, "greedy-pmtn-migr", config=_config())
        report = service.replay(TRACE, keep_result=False)
        assert report.placements > 0
        assert report.wall_seconds > 0.0
        assert report.placements_per_wall_sec > 0.0
        assert {"p50", "p90", "p99", "mean", "max"} <= set(report.queue_latency)
        payload = bench_payload(report, workload="diurnal-150", nodes=16)
        assert payload["benchmark"] == "serve-loadtest"
        assert payload["workload"] == "diurnal-150"
        assert payload["nodes"] == 16
        assert payload["placements"] == report.placements
        summary = report.to_dict()
        assert summary["algorithm"] == "greedy-pmtn-migr"
        assert summary["submitted"] == 150
