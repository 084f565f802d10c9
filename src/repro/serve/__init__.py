"""`repro.serve` — the scheduler core as an online service.

The simulator and the service are two drivers of one scheduler core,
differing only in their clock (the ROADMAP's "one scheduler core, two
clocks" decomposition):

* :class:`~repro.core.clock.SimulatedClock` — discrete-event campaigns,
  exactly as before;
* :class:`~repro.core.clock.WallClock` — real-time (optionally accelerated)
  serving and trace replay.

Pieces:

* :mod:`~repro.serve.admission` — the admission-policy ``type`` registry
  (``accept-all``, ``bounded-queue``, ``load-threshold``, ``token-bucket``);
* :mod:`~repro.serve.service` — :class:`SchedulerService`: asyncio
  submit/status/cancel driving the engine's online stepping API, plus the
  synchronous accelerated-replay mode used for load testing;
* :mod:`~repro.serve.protocol` — the JSON-lines local-socket front end with
  the live streaming-metrics endpoint;
* :mod:`~repro.serve.loadtest` — ``repro-dfrs loadtest``: trace replay at a
  configurable acceleration, reporting sustained placements/sec and
  queue-latency quantiles.

The replay path is pinned byte-identical to ``Simulator.run_stream``
(``tests/serve/test_replay_determinism.py``): the serving layer changes when
decisions happen in wall time, never what they are in simulated time.
"""

from ..core.clock import Clock, SimulatedClock, WallClock
from .admission import (
    AcceptAllPolicy,
    AdmissionDecision,
    AdmissionPolicy,
    BoundedQueuePolicy,
    LoadThresholdPolicy,
    ServiceLoad,
    TokenBucketPolicy,
    admission_policy_from_dict,
    available_admission_policies,
    register_admission_policy,
)
from .loadtest import PlacementLogObserver, bench_payload, peak_rss_mb
from .protocol import ServiceServer
from .service import ReplayReport, SchedulerService, ServiceJobRecord, ServiceMetrics

__all__ = [
    "Clock",
    "SimulatedClock",
    "WallClock",
    "AdmissionPolicy",
    "AdmissionDecision",
    "ServiceLoad",
    "AcceptAllPolicy",
    "BoundedQueuePolicy",
    "LoadThresholdPolicy",
    "TokenBucketPolicy",
    "register_admission_policy",
    "admission_policy_from_dict",
    "available_admission_policies",
    "SchedulerService",
    "ServiceMetrics",
    "ServiceJobRecord",
    "ReplayReport",
    "ServiceServer",
    "PlacementLogObserver",
    "bench_payload",
    "peak_rss_mb",
]
