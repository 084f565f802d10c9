"""Metric tables and the per-layer arithmetic over a traced unit's spans.

``END_TO_END`` and ``PER_LAYER`` are the single list of metric names;
``BENCHMARK.json`` repeats them (``test_harness.py`` keeps the two equal).
A per-layer metric that does not apply to a workload (``serve.*`` on a
simulator workload, say) reads 0: the result contract wants every name on
every workload, as a number.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from repro.schedulers import PAPER_ALGORITHMS

from spans import durations, totals

#: (name, unit, better, bound) — what a user of the system sees.  Every one
#: is defined, and never 0, on all six workloads.
END_TO_END = (
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better) — single layers, traced run, no bound.
PER_LAYER = (
    ("traces.generate_s", "s", "lower"),
    ("traces.jobs_per_s", "1/s", "higher"),
    ("core.engine.run_s", "s", "lower"),
    ("core.engine.self_s", "s", "lower"),
    ("core.engine.self_share", "share", "lower"),
    ("core.engine.self_us_per_event", "us", "lower"),
    ("core.engine.events", "count", "lower"),
    ("core.engine.events_per_s", "1/s", "higher"),
    ("core.engine.peak_resident_jobs", "count", "lower"),
    ("core.engine.online_residual_s", "s", "lower"),
    ("schedulers.schedule_s", "s", "lower"),
    ("schedulers.schedule_calls", "count", "lower"),
    ("schedulers.schedule_share", "share", "lower"),
    ("schedulers.schedule_p50_ms", "ms", "lower"),
    ("schedulers.schedule_p99_ms", "ms", "lower"),
    ("schedulers.jobs_per_call_mean", "count", "lower"),
    ("schedulers.jobs_per_call_max", "count", "lower"),
    ("schedulers.dfrs.placement.greedy_place_us_per_task", "us", "lower"),
    ("schedulers.dfrs.placement.replay_calls", "count", "higher"),
    ("schedulers.dfrs.placement.fail_share", "share", "lower"),
    ("core.cluster.usage_snapshot_us", "us", "lower"),
    ("packing.maximize_min_yield_ms_per_call", "ms", "lower"),
    ("packing.mcb8_pack_ms_per_call", "ms", "lower"),
    ("packing.mcb8_us_per_item", "us", "lower"),
    ("packing.items_per_call_mean", "count", "lower"),
    ("packing.pack_success_share", "share", "higher"),
    ("packing.replay_calls", "count", "higher"),
    ("core.allocation.validate_us_per_call", "us", "lower"),
    ("metrics.job_accumulator_add_us", "us", "lower"),
    ("core.observers.placement_log_s", "s", "lower"),
    ("core.observers.placement_log_entries", "count", "lower"),
    ("serve.protocol.submit_rtt_s", "s", "lower"),
    ("serve.protocol.self_s", "s", "lower"),
    ("serve.protocol.submit_p50_ms", "ms", "lower"),
    ("serve.protocol.submit_p99_ms", "ms", "lower"),
    ("serve.protocol.status_p50_ms", "ms", "lower"),
    ("serve.protocol.codec_us_per_op", "us", "lower"),
    ("serve.protocol.requests", "count", "higher"),
    ("serve.protocol.error_replies", "count", "lower"),
    ("serve.service.submit_s", "s", "lower"),
    ("serve.service.submit_us_per_call", "us", "lower"),
    ("serve.service.metrics_op_p50_ms", "ms", "lower"),
    ("serve.service.drain_s", "s", "lower"),
    ("serve.admission.admit_us_per_call", "us", "lower"),
    ("campaign.cold_run_s", "s", "lower"),
    ("campaign.warm_run_s", "s", "lower"),
    ("campaign.cache_hit_ms_per_cell", "ms", "lower"),
    ("campaign.cells", "count", "higher"),
    ("campaign.cells_per_s", "1/s", "higher"),
    *(
        (f"campaign.alg.{algorithm}.wall_s", "s", "lower")
        for algorithm in PAPER_ALGORITHMS
    ),
    ("sim.events", "count", "lower"),
    ("sim.preemptions", "count", "lower"),
    ("sim.migrations", "count", "lower"),
    ("sim.makespan_s", "s", "lower"),
    ("sim.max_stretch", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.schedule_span_vs_sink", "ratio", "lower"),
    ("harness.client_s", "s", "lower"),
    ("harness.calib_spin_s", "s", "lower"),
    ("harness.rounds", "count", "higher"),
)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 on an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _accessors(by_name: Dict[str, tuple]) -> tuple:
    """``(total seconds, self seconds, count)`` look-ups that read 0 for a
    span name the run never recorded."""
    zero = (0.0, 0.0, 0)
    return tuple(
        (lambda name, index=index: by_name.get(name, zero)[index]) for index in range(3)
    )


def layer_metrics(
    *,
    setup_info: Dict[str, float],
    num_jobs: int,
    reference: List[Any],
    traced: List[Any],
    tracer: Any,
) -> Dict[str, float]:
    """The span-derived ``PER_LAYER`` metrics of one workload's traced run.

    ``reference`` are the untraced units of the same run (latencies and rates
    a user would see are read off them), ``traced`` the traced ones;
    ``tracer`` belongs to the last traced unit.  Names left out do not apply
    to the workload; the caller reports them as 0.
    """
    metrics: Dict[str, float] = {}
    unit = traced[-1]
    spans = tracer.recorder.spans
    by_name = totals(spans, tracer.recorder.run)

    total, own, count = _accessors(by_name)

    # Fastest traced over fastest untraced unit: host noise only slows units
    # down, so the two minima are the cleanest pair to compare.
    metrics["harness.trace_overhead_ratio"] = min(u.wall_s for u in traced) / min(
        u.wall_s for u in reference
    )

    # traces: generated in set-up for materialized inputs, inside the run
    # (lazy intake) for the streamed one.
    generate_s = total("traces.generate") or setup_info.get("traces.generate_s", 0.0)
    metrics["traces.generate_s"] = generate_s
    metrics["traces.jobs_per_s"] = num_jobs / generate_s if generate_s else 0.0

    sim = unit.sim or unit.extra.get("sim", {})
    for name in ("sim.events", "sim.preemptions", "sim.migrations",
                 "sim.makespan_s", "sim.max_stretch"):
        metrics[name] = float(sim.get(name, 0.0))

    schedule_s = total("schedulers.schedule")
    schedule_durations = durations(spans, tracer.recorder.run, "schedulers.schedule")
    proxy = tracer.scheduler
    if proxy is not None and proxy.jobs_per_call:
        metrics["schedulers.jobs_per_call_mean"] = statistics.fmean(proxy.jobs_per_call)
        metrics["schedulers.jobs_per_call_max"] = float(max(proxy.jobs_per_call))
    metrics["schedulers.schedule_s"] = schedule_s
    metrics["schedulers.schedule_calls"] = float(count("schedulers.schedule"))
    metrics["schedulers.schedule_p50_ms"] = percentile(schedule_durations, 0.50) * 1e3
    metrics["schedulers.schedule_p99_ms"] = percentile(schedule_durations, 0.99) * 1e3
    observer_s = total("core.observers.placement_log")
    metrics["core.observers.placement_log_s"] = observer_s
    if tracer.placement_log is not None:
        metrics["core.observers.placement_log_entries"] = float(
            len(tracer.placement_log.entries)
        )

    run_s = total("core.engine.run")
    if run_s:
        events = float(sim.get("sim.events", 0))
        metrics["core.engine.run_s"] = run_s
        metrics["core.engine.self_s"] = own("core.engine.run")
        metrics["core.engine.self_share"] = own("core.engine.run") / run_s
        metrics["core.engine.self_us_per_event"] = (
            own("core.engine.run") / events * 1e6 if events else 0.0
        )
        metrics["core.engine.events"] = events
        metrics["core.engine.events_per_s"] = max(
            u.sim["sim.events"] / u.wall_s for u in reference
        )
        metrics["core.engine.peak_resident_jobs"] = float(
            unit.extra.get("peak_resident_jobs", 0)
        )
        metrics["schedulers.schedule_share"] = schedule_s / run_s

    if "latencies" in unit.extra:
        _serve_metrics(metrics, unit, reference, by_name, schedule_s, observer_s)
    if "cold_s" in unit.extra:
        cells = float(unit.sim["campaign.cells"])
        cold_s = min(u.extra["cold_s"] for u in reference)
        warm_s = min(u.extra["warm_s"] for u in reference)
        metrics["campaign.cold_run_s"] = cold_s
        metrics["campaign.warm_run_s"] = warm_s
        metrics["campaign.cache_hit_ms_per_cell"] = warm_s / cells * 1e3
        metrics["campaign.cells"] = cells
        metrics["campaign.cells_per_s"] = cells / cold_s
    return metrics


def _serve_metrics(
    metrics: Dict[str, float],
    unit: Any,
    reference: List[Any],
    by_name: Dict[str, tuple],
    schedule_s: float,
    observer_s: float,
) -> None:
    """The socket path: protocol, service, admission and the online driver.

    Engine steps the driver task takes inside a round-trip window cannot be
    told from protocol work from outside, except for their schedule/observer
    spans; they count as protocol self time.  ``status_p50_ms`` (no service
    work, no engine wake-up) is the clean socket + codec + dispatch floor.
    """
    total, own, count = _accessors(by_name)

    def pooled(op: str) -> List[float]:
        return [s for u in reference for s in u.extra["latencies"][op]]

    submits = pooled("submit")
    metrics["serve.protocol.submit_p50_ms"] = percentile(submits, 0.50) * 1e3
    metrics["serve.protocol.submit_p99_ms"] = percentile(submits, 0.99) * 1e3
    metrics["serve.protocol.status_p50_ms"] = percentile(pooled("status"), 0.50) * 1e3
    metrics["serve.service.metrics_op_p50_ms"] = percentile(pooled("metrics"), 0.50) * 1e3

    requests = unit.extra["requests"]
    client_s = unit.extra["client_s"]
    protocol_self = sum(
        own("serve.protocol." + op) for op in ("submit", "status", "metrics")
    )
    submit_s = total("serve.service.submit")
    submit_calls = count("serve.service.submit")
    admit_calls = count("serve.admission.admit")
    metrics["serve.protocol.submit_rtt_s"] = total("serve.protocol.submit")
    metrics["serve.protocol.self_s"] = protocol_self
    metrics["serve.protocol.codec_us_per_op"] = client_s / requests * 1e6
    metrics["serve.protocol.requests"] = float(requests)
    metrics["serve.protocol.error_replies"] = float(unit.extra["errors"])
    metrics["serve.service.submit_s"] = submit_s
    metrics["serve.service.submit_us_per_call"] = (
        submit_s / submit_calls * 1e6 if submit_calls else 0.0
    )
    metrics["serve.service.drain_s"] = total("serve.protocol.drain")
    metrics["serve.admission.admit_us_per_call"] = (
        total("serve.admission.admit") / admit_calls * 1e6 if admit_calls else 0.0
    )
    metrics["harness.client_s"] = client_s
    metrics["schedulers.schedule_share"] = schedule_s / unit.wall_s
    metrics["core.engine.online_residual_s"] = max(
        0.0,
        unit.wall_s - client_s - protocol_self - submit_s - schedule_s - observer_s,
    )
