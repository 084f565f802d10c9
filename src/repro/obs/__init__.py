"""Observability: telemetry, span tracing, profiling, Prometheus exposition.

The eighth subsystem contract.  Three pieces, all opt-in and all
near-zero-overhead when disabled:

* :class:`Telemetry` — the in-process sink of named counters, gauges, and
  phase timers, backed by the mergeable :mod:`repro.metrics` accumulators
  so per-worker bundles merge exactly across campaign pools
  (:func:`merge_telemetry_bundles`, :mod:`repro.obs.telemetry`);
* :func:`trace_span` and the Chrome trace-event / Perfetto exporter
  (:mod:`repro.obs.tracing`), driven by ``repro-dfrs profile run|replay``;
* the Prometheus text-exposition renderer (:mod:`repro.obs.prometheus`),
  served by the ``metrics-prom`` op of the serve JSON-lines protocol.

The second observability layer builds on that seam:

* the per-job **flight recorder** (:mod:`repro.obs.flight`) — a bounded
  ring of causal lifecycle events (submit/start/preempt/migrate/...),
  enabled via ``{"type": "stats", "flight": <capacity>}`` specs, exported
  as JSON lines or per-job Perfetto lanes;
* **SLO / goodput collectors** (:mod:`repro.obs.slo`) — streaming-capable
  campaign collectors for JCT, SLO attainment, and windowed goodput;
* the **soak harness** (:mod:`repro.obs.soak`) — a long-haul accelerated
  serve driver with scraped health samples and invariant checks.

Declarative specs (``{"type": "off" | "stats" | "tracing"}``) travel in
scenario specs and :class:`~repro.core.engine.SimulationConfig`;
:func:`telemetry_spec` is the one place they are validated and
:func:`as_telemetry` the one place a sink is built from them.  The
wall-clock *seam* of the engine lives in :mod:`repro.obs.timing` — the only
module ``repro.core`` may read interval timers through (policed by OBS701).
"""

from .flight import (
    FlightEvent,
    FlightObserver,
    FlightRecorder,
    flight_trace_events,
    write_flight_jsonl,
    write_flight_trace,
)
from .prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    render_telemetry,
)
from .telemetry import (
    Telemetry,
    as_telemetry,
    current_telemetry,
    merge_telemetry_bundles,
    push_telemetry,
    summarize_bundle,
    telemetry_spec,
    timed_phase,
)
from .tracing import chrome_trace_events, trace_span, write_chrome_trace

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "FlightEvent",
    "FlightObserver",
    "FlightRecorder",
    "Telemetry",
    "as_telemetry",
    "chrome_trace_events",
    "current_telemetry",
    "flight_trace_events",
    "merge_telemetry_bundles",
    "push_telemetry",
    "render_prometheus",
    "render_telemetry",
    "summarize_bundle",
    "telemetry_spec",
    "timed_phase",
    "trace_span",
    "write_chrome_trace",
    "write_flight_jsonl",
    "write_flight_trace",
]
