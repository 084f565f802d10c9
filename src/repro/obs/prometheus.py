"""Prometheus text-exposition rendering (format version 0.0.4).

Turns the serve layer's metrics snapshot — and, when the service is
instrumented, its telemetry sink — into the plain-text exposition format a
Prometheus server scrapes.  The serve JSON-lines protocol exposes the
rendered text through the ``metrics-prom`` op (see
:mod:`repro.serve.protocol`), and ``repro-dfrs loadtest --prom-out`` writes
one final exposition for soak-run artifacts.

Only the stable subset of the format is emitted: ``# HELP`` / ``# TYPE``
headers, counter/gauge/summary samples, ``quantile`` labels on the latency
summary.  Metric names are sanitised to the Prometheus charset and rendered
in sorted order so the output is deterministic for a given snapshot.
"""

from __future__ import annotations

import re
from typing import Any, List, Mapping, Optional, Tuple

from .telemetry import Telemetry

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "render_telemetry",
]

#: What a conforming scrape endpoint advertises for this exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")

#: Snapshot fields exported as counters (monotonic tallies), with help text.
_SNAPSHOT_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("submitted", "Jobs submitted to the service"),
    ("accepted", "Jobs accepted by admission control"),
    ("rejected", "Jobs rejected by admission control"),
    ("shed", "Jobs shed by admission control"),
    ("cancelled", "Jobs cancelled by clients"),
    ("starts", "Job start placements applied"),
    ("resumes", "Job resume placements applied"),
    ("migrations", "Job migrations applied"),
    ("preemptions", "Job preemptions applied"),
    ("completions", "Jobs completed"),
    ("placements", "Placement actions applied (starts + resumes + migrations)"),
    ("slo_attained", "Completed jobs that met their SLO deadline"),
    ("slo_total", "Completed jobs evaluated against the SLO deadline"),
)

#: Snapshot fields exported as gauges, with help text.
_SNAPSHOT_GAUGES: Tuple[Tuple[str, str], ...] = (
    ("sim_time", "Current simulated time in seconds"),
    ("wall_seconds", "Wall-clock seconds since the service started"),
    ("placements_per_wall_sec", "Sustained placement rate"),
    ("queue_depth", "Jobs currently pending placement"),
    ("slo_factor", "SLO deadline multiplier over nominal runtime"),
    ("slo_attainment", "Fraction of completed jobs that met their SLO"),
)


def _metric_name(*parts: str) -> str:
    """Join and sanitise name parts to the Prometheus metric charset."""
    name = "_".join(_INVALID_CHARS.sub("_", part) for part in parts if part)
    return _INVALID_FIRST.sub("_", name) if name else "_"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _format_value(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _sample(
    lines: List[str],
    name: str,
    metric_type: str,
    help_text: str,
    samples: List[Tuple[str, float]],
) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {metric_type}")
    for labels, value in samples:
        lines.append(f"{name}{labels} {_format_value(value)}")


def render_telemetry(
    telemetry: Telemetry, *, prefix: str = "repro"
) -> List[str]:
    """Exposition lines of one telemetry sink (counters, gauges, phases)."""
    lines: List[str] = []
    for name in sorted(telemetry.counters):
        metric = _metric_name(prefix, name) + "_total"
        _sample(
            lines, metric, "counter",
            f"Telemetry counter {name}",
            [("", float(telemetry.counters[name]))],
        )
    for name, moments in sorted(telemetry.gauges().items()):
        if moments.n == 0:
            continue
        metric = _metric_name(prefix, name)
        _sample(
            lines, metric, "gauge",
            f"Telemetry gauge {name} (mean of sampled values)",
            [("", moments.mean)],
        )
    phases = {
        name: moments
        for name, moments in sorted(telemetry.phases().items())
        if moments.n > 0
    }
    if phases:
        base = _metric_name(prefix, "phase")
        _sample(
            lines, base + "_seconds_total", "counter",
            "Cumulative wall-clock seconds per telemetry phase",
            [
                (f'{{phase="{_escape_label(name)}"}}', moments.mean * moments.n)
                for name, moments in phases.items()
            ],
        )
        _sample(
            lines, base + "_count", "counter",
            "Occurrences per telemetry phase",
            [
                (f'{{phase="{_escape_label(name)}"}}', float(moments.n))
                for name, moments in phases.items()
            ],
        )
    return lines


def render_prometheus(
    snapshot: Mapping[str, Any],
    *,
    telemetry: Optional[Telemetry] = None,
    prefix: str = "repro_serve",
) -> str:
    """Render a service metrics snapshot as a Prometheus exposition.

    ``snapshot`` is :meth:`repro.serve.SchedulerService.metrics_snapshot`
    output (the ``bundle`` field is ignored — accumulators serialise for
    merging, not scraping).  ``telemetry`` appends the engine sink's
    instruments under the ``repro_engine`` namespace.
    """
    lines: List[str] = []
    for field, help_text in _SNAPSHOT_COUNTERS:
        if field in snapshot:
            _sample(
                lines, _metric_name(prefix, field) + "_total", "counter",
                help_text, [("", float(snapshot[field]))],
            )
    for field, help_text in _SNAPSHOT_GAUGES:
        if field in snapshot:
            _sample(
                lines, _metric_name(prefix, field), "gauge",
                help_text, [("", float(snapshot[field]))],
            )
    latency = snapshot.get("queue_latency")
    if isinstance(latency, Mapping) and latency:
        metric = _metric_name(prefix, "queue_latency_seconds")
        quantiles: List[Tuple[str, float]] = []
        for key, quantile in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
            if key in latency:
                quantiles.append(
                    (f'{{quantile="{quantile}"}}', float(latency[key]))
                )
        if quantiles:
            _sample(
                lines, metric, "summary",
                "Queue latency (submission to first placement), sketched "
                "quantiles", quantiles,
            )
        for stat in ("mean", "max"):
            if stat in latency:
                _sample(
                    lines, metric + "_" + stat, "gauge",
                    f"Queue latency {stat} in seconds",
                    [("", float(latency[stat]))],
                )
    jct = snapshot.get("jct")
    if isinstance(jct, Mapping) and jct:
        metric = _metric_name(prefix, "jct_seconds")
        quantiles = []
        for key, quantile in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
            if key in jct:
                quantiles.append(
                    (f'{{quantile="{quantile}"}}', float(jct[key]))
                )
        if quantiles:
            _sample(
                lines, metric, "summary",
                "Job completion time (submission to completion), sketched "
                "quantiles", quantiles,
            )
        for stat in ("mean", "max"):
            if stat in jct:
                _sample(
                    lines, metric + "_" + stat, "gauge",
                    f"Job completion time {stat} in seconds",
                    [("", float(jct[stat]))],
                )
    if telemetry is not None:
        lines.extend(render_telemetry(telemetry, prefix="repro_engine"))
    return "\n".join(lines) + "\n" if lines else ""

