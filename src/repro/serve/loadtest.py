"""Trace-replay load testing for the serving layer.

``repro-dfrs loadtest`` replays any :class:`repro.traces.JobSource` through
:meth:`SchedulerService.replay <repro.serve.service.SchedulerService.replay>`
at a configurable acceleration (or flat out, under a
:class:`~repro.core.clock.SimulatedClock`) and reports sustained
placements/sec, admission outcomes, and queue-latency quantiles;
:func:`bench_payload` shapes that report as a ``--bench-json`` entry.

:class:`PlacementLogObserver` records every placement action the engine
applies as a canonical JSON log; the replay-determinism tests byte-compare
the log of a service replay against the log of a bare ``run_stream`` to pin
the tentpole guarantee: the serving layer changes *when* decisions are made
in wall time, never *what* they are in simulated time.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from ..core.observers import SimEvent, SimulationObserver
from .service import ReplayReport

__all__ = ["PlacementLogObserver", "bench_payload", "peak_rss_mb"]


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB (None if unavailable).

    Sampled once at report time: ``ru_maxrss`` is a high-water mark, so one
    reading after the replay captures the run's memory cost.  Linux reports
    KiB, macOS bytes; Windows has no ``resource`` module, hence Optional.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0


_PLACEMENTS = frozenset({"start", "resume", "migrate"})
#: Logged action of each vacating kind; a cancel is not a placement action.
_VACATING = {
    "preempt": "preempt",
    "checkpoint": "preempt",
    "failure-kill": "preempt",
    "complete": "complete",
}


class PlacementLogObserver(SimulationObserver):
    """Append-only log of every placement decision the engine applies.

    Entries are ``[time, action, job_id, nodes, yield]`` rows; node tuples
    and yields are recorded exactly as applied, and both failure evictions
    are logged as ``preempt``.  :meth:`to_json_bytes` serialises the whole
    log canonically (sorted keys, full float repr), so two runs made the
    same decisions if and only if their logs are equal as byte strings.
    """

    def __init__(self) -> None:
        self.entries: List[List[Any]] = []

    def on_event(self, event: SimEvent) -> None:
        kind = event.kind
        if kind in _PLACEMENTS:
            row = [list(event.nodes), event.yield_value]
        elif kind == "yield":
            row = [None, event.yield_value]
        elif kind in _VACATING:
            kind = _VACATING[kind]
            row = [None, None]
        else:
            return
        self.entries.append([event.time, kind, event.spec.job_id, *row])

    def to_json_bytes(self) -> bytes:
        """Canonical byte serialisation of the log (for byte-equality pins)."""
        return json.dumps(self.entries, sort_keys=True).encode("utf-8")


def bench_payload(
    report: ReplayReport,
    *,
    workload: str,
    nodes: int,
) -> Dict[str, Any]:
    """Shape one load-test report as a ``loadtest --bench-json`` entry.

    ``peak_rss_mb`` is a fresh :func:`peak_rss_mb` sample, so the entry
    tracks the replay's memory high-water mark next to its latency
    quantiles.
    """
    return {
        "peak_rss_mb": peak_rss_mb(),
        "benchmark": "serve-loadtest",
        "workload": workload,
        "nodes": nodes,
        "algorithm": report.algorithm,
        "clock": report.clock,
        "acceleration": report.acceleration,
        "jobs_submitted": report.submitted,
        "jobs_accepted": report.accepted,
        "jobs_rejected": report.rejected,
        "jobs_shed": report.shed,
        "placements": report.placements,
        "completions": report.completions,
        "sim_seconds": report.sim_seconds,
        "wall_seconds": report.wall_seconds,
        "placements_per_wall_sec": report.placements_per_wall_sec,
        "queue_latency": dict(report.queue_latency),
        "jct": dict(report.jct),
        "slo_factor": report.slo_factor,
        "slo_attained": report.slo_attained,
        "slo_attainment": report.slo_attainment,
    }
