"""Pluggable metric collectors backed by :mod:`repro.core.observers`.

A collector turns one finished simulation into a flat metrics dictionary —
the cells of a :class:`~repro.campaign.result.RunRecord`.  A collector that
must watch the run brings its own observers: ``observers(streaming)`` returns
fresh :class:`~repro.core.observers.SimulationObserver` instances built from
the collector's options, keyed by name.  Campaign tasks stay picklable —
worker processes receive collector names and options, build the collectors
and their observers locally, attach the observers to the simulator, and hand
the same dictionary back to ``collect`` / ``stream_partials`` after the run,
so only plain dictionaries travel back over the pool.  The engine itself
measures nothing a collector needs beyond the result.

Metric values are floats, ints, or lists of floats (for raw sample vectors
such as scheduler timings); everything must survive a JSON round trip, which
is what makes the executor's run cache and the CSV/JSON exporters lossless.

Streaming campaigns (``Campaign(streaming=True)``) use a second, two-phase
protocol on collectors that declare ``streaming_capable``:
``stream_partials`` turns one streaming-metrics
:class:`~repro.core.records.SimulationResult` and the collector's observers
into a bundle of mergeable :class:`repro.metrics.Accumulator` objects (what
workers ship back over the pool), and ``stream_finalize`` turns the bundle
merged across a cell's instances into the flat metrics row.  Collectors that
fundamentally need the full per-job population (raw timing vectors) keep
``streaming_capable = False`` and are rejected with a targeted error when a
streaming campaign requests them; ``fairness`` streams via the stretch
moments (exact Jain) and quantile-sketch bucket masses (bounded-error Gini
and p95).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.invariants import InvariantCheckingObserver
from ..core.observers import (
    CLOSING_KINDS,
    AvailabilityRecorder,
    SimEvent,
    SimulationObserver,
    UtilizationRecorder,
)
from ..core.records import SimulationResult
from ..exceptions import ConfigurationError
from ..registry import Registry
from ..metrics import (
    Accumulator,
    JobMetricsAccumulator,
    Moments,
    SumAccumulator,
    TimeWeightedValue,
)
from ..traces.model import Workload

__all__ = [
    "MetricCollector",
    "StretchCollector",
    "CostCollector",
    "TimingCollector",
    "FairnessCollector",
    "UtilizationCollector",
    "AvailabilityCollector",
    "InvariantsCollector",
    "BusyNodeObserver",
    "available_collectors",
    "create_collector",
    "register_collector",
]


def _tally(value: float) -> SumAccumulator:
    """A one-run exact total, pooled across instances by ``merge``."""
    return SumAccumulator(total=float(value), n=1)


class MetricCollector:
    """Base collector: subclass, set ``name``, override ``collect``.

    ``observers(streaming)`` returns the fresh observers this collector needs
    attached to the simulator for one run, keyed by name; ``collect`` (and,
    in streaming campaigns, ``stream_partials``) receives that dictionary
    back together with the finished result.
    """

    name: str = "base"
    #: True when the collector implements the two-phase streaming protocol
    #: (``stream_partials`` / ``stream_finalize``) and therefore works in
    #: bounded-memory campaigns.
    streaming_capable: bool = False

    def observers(self, streaming: bool) -> Dict[str, SimulationObserver]:
        """Fresh observers to attach for one run; ``streaming`` selects the
        bounded-memory kind for a streaming-metrics run."""
        return {}

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        raise NotImplementedError

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        """Mergeable partials of one streaming-metrics run (worker side)."""
        raise ConfigurationError(
            f"metric collector {self.name!r} does not support streaming "
            "campaigns (it needs the full per-job population)"
        )

    def stream_finalize(
        self, merged: Mapping[str, Accumulator]
    ) -> Dict[str, Any]:
        """Flat metrics row from partials merged across a cell's instances."""
        raise ConfigurationError(
            f"metric collector {self.name!r} does not support streaming campaigns"
        )

    def _require_job_stats(self, result: SimulationResult) -> "JobMetricsAccumulator":
        if result.job_stats is None:
            raise ConfigurationError(
                f"collector {self.name!r} needs a streaming-metrics result "
                "(SimulationConfig(streaming_metrics=True)) to build partials"
            )
        return result.job_stats


class StretchCollector(MetricCollector):
    """Headline stretch/turnaround metrics — the default collector.

    In streaming mode the row additionally carries the sketched stretch
    quantiles (``stretch_p50``/``p90``/``p99``, within the sketch's
    documented relative-error bound) merged exactly across the cell's
    instances; ``max_stretch`` and ``num_jobs`` stay exact.
    """

    name = "stretch"
    streaming_capable = True

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        return {
            "max_stretch": result.max_stretch,
            "mean_stretch": result.mean_stretch,
            "mean_turnaround": result.mean_turnaround,
            "makespan": result.makespan,
            "num_jobs": result.num_jobs,
        }

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        job_stats = self._require_job_stats(result)
        makespan = Moments()
        makespan.add(result.makespan)
        return {"jobs": job_stats, "makespan": makespan}

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        summary = merged["jobs"].summary()
        summary["num_jobs"] = int(summary.get("num_jobs", 0))
        worst = merged["jobs"].worst_stretch.items()
        if worst:
            # The id of the worst-stretch job (within its instance, when the
            # cell merges several) — the first thing to pull out of a trace
            # when a campaign row shows a pathological maximum.
            summary["worst_job_id"] = int(worst[0][1])
        makespan = merged["makespan"]
        # One makespan per instance: report the mean (what the non-streaming
        # summary table would average) and the worst case.
        summary["makespan"] = makespan.mean if makespan.count else 0.0
        summary["max_makespan"] = makespan.maximum if makespan.count else 0.0
        return summary


class CostCollector(MetricCollector):
    """Preemption/migration cost metrics (the Table II columns).

    Streaming mode pools the raw tallies (counts, GB moved, simulated
    seconds, jobs) across the cell's instances and re-derives the ratios
    from the pooled totals, so the merged row is the cost profile of the
    concatenated runs rather than a mean of per-run ratios.
    """

    name = "costs"
    streaming_capable = True

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        return {
            "pmtn_bandwidth_gb_per_sec": result.preemption_bandwidth_gb_per_sec(),
            "migr_bandwidth_gb_per_sec": result.migration_bandwidth_gb_per_sec(),
            "pmtn_per_hour": result.preemptions_per_hour(),
            "migr_per_hour": result.migrations_per_hour(),
            "pmtn_per_job": result.preemptions_per_job(),
            "migr_per_job": result.migrations_per_job(),
            # Platform failure impact (zero on static platforms): node-down
            # events applied, and jobs killed by the "resubmit" policy —
            # checkpointed ("migrate") victims show up in the pmtn columns.
            "node_failures": result.costs.node_failures,
            "failure_job_kills": result.costs.failure_job_kills,
            # Overhead-model charges (zero without an overhead model).
            "overhead_events": result.costs.overhead_events,
            "overhead_seconds": result.costs.overhead_seconds,
        }

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        return {
            "pmtn_count": _tally(result.costs.preemption_count),
            "migr_count": _tally(result.costs.migration_count),
            "pmtn_gb": _tally(result.costs.preemption_gb),
            "migr_gb": _tally(result.costs.migration_gb),
            "node_failures": _tally(result.costs.node_failures),
            "failure_job_kills": _tally(result.costs.failure_job_kills),
            "overhead_events": _tally(result.costs.overhead_events),
            "overhead_seconds": _tally(result.costs.overhead_seconds),
            "jobs": _tally(result.num_jobs),
            "seconds": _tally(result.makespan),
        }

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        seconds = max(merged["seconds"].total, 1e-9)
        hours = seconds / 3600.0
        jobs = max(1.0, merged["jobs"].total)
        return {
            "pmtn_bandwidth_gb_per_sec": merged["pmtn_gb"].total / seconds,
            "migr_bandwidth_gb_per_sec": merged["migr_gb"].total / seconds,
            "pmtn_per_hour": merged["pmtn_count"].total / hours,
            "migr_per_hour": merged["migr_count"].total / hours,
            "pmtn_per_job": merged["pmtn_count"].total / jobs,
            "migr_per_job": merged["migr_count"].total / jobs,
            "node_failures": int(merged["node_failures"].total),
            "failure_job_kills": int(merged["failure_job_kills"].total),
            "overhead_events": int(merged["overhead_events"].total),
            "overhead_seconds": merged["overhead_seconds"].total,
        }


class TimingCollector(MetricCollector):
    """Raw per-event scheduler timings and job inter-arrival gaps (§V study)."""

    name = "timing"

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        submits = sorted(spec.submit_time for spec in workload.jobs)
        return {
            "scheduler_times": [float(value) for value in result.scheduler_times],
            "scheduler_job_counts": [
                int(value) for value in result.scheduler_job_counts
            ],
            "interarrivals": np.diff(submits).tolist(),
        }


class FairnessCollector(MetricCollector):
    """Per-job stretch fairness indices (Jain, Gini, tail percentile).

    The exact path (default campaigns) is unchanged: indices over the
    materialized per-job stretches.  In streaming campaigns the collector
    ships the engine's :class:`~repro.metrics.JobMetricsAccumulator` as its
    partial and derives the row from the merged accumulator: Jain's index is
    **exact** (it needs only the stretch moments, which merge exactly);
    Gini and p95 come from the stretch quantile sketch's bucket masses and
    carry the sketch's documented relative-error bound.
    """

    name = "fairness"
    streaming_capable = True

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        from ..analysis.fairness import stretch_fairness

        report = stretch_fairness(result)
        return {
            "jain_stretch": report.jain_stretch,
            "gini_stretch": report.gini_stretch,
            "p95_stretch": report.p95_stretch,
        }

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        return {"jobs": self._require_job_stats(result)}

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        from ..analysis.fairness import streaming_stretch_fairness

        return streaming_stretch_fairness(merged["jobs"])


class BusyNodeObserver(SimulationObserver):
    """Time-weighted busy-node count (streaming ``utilization``).

    Per-node task counts follow the transitions; each ``applied`` and the
    ``run-end`` first fold the span since the previous one into
    :attr:`stats` at the busy count that held over it, and ``applied`` then
    sets that count to the nodes with a task.  Under ``run`` /
    ``run_stream`` every event ends in one of the two, so the segments are
    the engine's event intervals.  Memory is O(busy nodes); each transition
    costs O(its tasks).
    """

    stats: TimeWeightedValue

    def __init__(self) -> None:
        #: node -> tasks of running jobs on it; a busy node has an entry.
        self._tasks: Dict[int, int] = {}

    def on_event(self, event: SimEvent) -> None:
        kind = event.kind
        if kind == "applied":
            self._advance(event.time)
            self._busy = float(len(self._tasks))
        elif kind == "start" or kind == "resume" or kind == "migrate":
            tasks = self._tasks
            if kind == "migrate":
                self._release(event.old_nodes)
            for node in event.nodes:
                tasks[node] = tasks.get(node, 0) + 1
        elif kind in CLOSING_KINDS:
            self._release(event.nodes)
        elif kind == "run-start":
            self.stats = TimeWeightedValue()
            self._tasks = {}
            self._busy = 0.0
            self._last = event.time
        elif kind == "run-end":
            self._advance(event.time)

    def _release(self, nodes: Tuple[int, ...]) -> None:
        tasks = self._tasks
        for node in nodes:
            count = tasks[node] - 1
            if count:
                tasks[node] = count
            else:
                del tasks[node]

    def _advance(self, time: float) -> None:
        span = time - self._last
        if span > 0.0:
            self.stats.add_segment(self._busy, span)
        self._last = time


class UtilizationCollector(MetricCollector):
    """Busy-node / CPU-allocation profile plus the node-power energy model.

    Materialized runs attach a :class:`~repro.core.observers.UtilizationRecorder`.
    The power-model watts are collector options so that scenarios can carry
    a non-default :class:`~repro.analysis.energy.NodePowerModel`
    declaratively.

    Streaming runs attach a :class:`BusyNodeObserver` instead of the full
    utilization trace: the busy-node integral, mean, and peak are **exact**,
    and the energy model is re-derived from the pooled node-second totals.
    Only ``mean_cpu_allocated`` is unavailable — it needs the per-allocation
    CPU trace, which bounded memory cannot keep.
    """

    name = "utilization"
    streaming_capable = True

    def __init__(
        self,
        *,
        busy_watts: Optional[float] = None,
        idle_watts: Optional[float] = None,
        off_watts: Optional[float] = None,
    ) -> None:
        # None means "use NodePowerModel's own default" — the defaults are
        # deliberately not duplicated here.
        self.busy_watts = busy_watts
        self.idle_watts = idle_watts
        self.off_watts = off_watts

    def observers(self, streaming: bool) -> Dict[str, SimulationObserver]:
        if streaming:
            return {"busy": BusyNodeObserver()}
        return {"utilization": UtilizationRecorder()}

    def _power_model(self) -> Any:
        from ..analysis.energy import NodePowerModel

        options = {
            key: value
            for key, value in (
                ("busy_watts", self.busy_watts),
                ("idle_watts", self.idle_watts),
                ("off_watts", self.off_watts),
            )
            if value is not None
        }
        return NodePowerModel(**options)

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        from ..analysis.energy import energy_from_recorder
        from ..analysis.fairness import stretch_fairness
        from ..analysis.timeseries import busy_nodes_series, cpu_allocated_series

        recorder = observers["utilization"]
        assert isinstance(recorder, UtilizationRecorder)
        busy = busy_nodes_series(recorder)
        cpu = cpu_allocated_series(recorder)
        model = self._power_model()
        energy = energy_from_recorder(
            recorder, workload.cluster, algorithm=result.algorithm, model=model
        )
        fairness = stretch_fairness(result)
        return {
            "mean_busy_nodes": busy.mean(),
            "peak_busy_nodes": recorder.peak_busy_nodes(),
            "mean_cpu_allocated": cpu.mean(),
            "energy_duration_seconds": energy.duration_seconds,
            "energy_busy_node_seconds": energy.busy_node_seconds,
            "energy_idle_node_seconds": energy.idle_node_seconds,
            "energy_always_on_joules": energy.always_on_joules,
            "energy_power_down_joules": energy.power_down_joules,
            "energy_savings_fraction": energy.savings_fraction,
            "jain_stretch": fairness.jain_stretch,
            "gini_stretch": fairness.gini_stretch,
            "p95_stretch": fairness.p95_stretch,
            # Energy under the platform's own per-node-class power draw (0.0
            # unless the platform declares node watts) — distinct from the
            # collector's idealized NodePowerModel columns above.
            "platform_energy_joules": result.energy_joules,
        }

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        job_stats = self._require_job_stats(result)
        busy = observers["busy"]
        assert isinstance(busy, BusyNodeObserver)
        return {
            "busy": busy.stats,
            "node_seconds": _tally(result.cluster.num_nodes * result.makespan),
            "platform_energy": _tally(result.energy_joules),
            "jobs": job_stats,
        }

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        from ..analysis.energy import _report
        from ..analysis.fairness import streaming_stretch_fairness

        busy = merged["busy"]
        energy = _report(
            "merged",
            busy.duration,
            merged["node_seconds"].total,
            busy.integral,
            self._power_model(),
        )
        row: Dict[str, Any] = {
            "mean_busy_nodes": busy.mean,
            "peak_busy_nodes": busy.maximum if busy.n else 0.0,
            "energy_duration_seconds": energy.duration_seconds,
            "energy_busy_node_seconds": energy.busy_node_seconds,
            "energy_idle_node_seconds": energy.idle_node_seconds,
            "energy_always_on_joules": energy.always_on_joules,
            "energy_power_down_joules": energy.power_down_joules,
            "energy_savings_fraction": energy.savings_fraction,
        }
        row.update(streaming_stretch_fairness(merged["jobs"]))
        row["platform_energy_joules"] = merged["platform_energy"].total
        return row


class AvailabilityCollector(MetricCollector):
    """Delivered vs. nominal CPU-hours under the platform availability trace.

    ``availability`` is the fraction of the cluster's nominal CPU capacity
    actually deliverable over the measured span (1.0 on static platforms);
    ``downtime_cpu_hours`` is what the failure trace took away.  The window
    columns summarise per-window availability over fixed windows of
    ``window_seconds`` anchored at the first submission — the worst window
    (``min_window_availability``) is the number an operator SLO would quote.

    Both campaign modes attach an
    :class:`~repro.core.observers.AvailabilityRecorder` (memory O(node
    events)) and window its segments through one loop, ``_window_ratios``.
    Streaming partials pool the whole-run integrals exactly across instances
    and the per-window ratios into moments — count, mean, and min stay
    exact, so a per-instance streaming row equals the materialized one up to
    the window mean (Welford vs. ``np.mean``).
    """

    name = "availability"
    streaming_capable = True

    def __init__(self, *, window_seconds: float = 3600.0) -> None:
        window = float(window_seconds)
        if not np.isfinite(window) or window <= 0.0:
            raise ConfigurationError(
                f"availability window_seconds must be positive and finite, "
                f"got {window_seconds!r}"
            )
        self.window_seconds = window

    def observers(self, streaming: bool) -> Dict[str, SimulationObserver]:
        return {"availability": AvailabilityRecorder()}

    @staticmethod
    def _row(
        delivered: float,
        nominal: float,
        windows: int,
        min_window: float,
        mean_window: float,
    ) -> Dict[str, Any]:
        return {
            "availability": delivered / nominal if nominal > 0 else 1.0,
            "delivered_cpu_hours": delivered / 3600.0,
            "nominal_cpu_hours": nominal / 3600.0,
            "downtime_cpu_hours": max(0.0, nominal - delivered) / 3600.0,
            "availability_windows": windows,
            "min_window_availability": min_window,
            "mean_window_availability": mean_window,
        }

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        recorder = observers["availability"]
        assert isinstance(recorder, AvailabilityRecorder)
        ratios = self._window_ratios(recorder)
        # Plain floats throughout: metric values must survive a JSON round
        # trip (np scalars from capacity sums do not).
        return self._row(
            float(recorder.delivered_cpu_seconds()),
            float(recorder.nominal_cpu_capacity()) * float(recorder.duration()),
            len(ratios),
            float(min(ratios)) if ratios else 1.0,
            float(np.mean(ratios)) if ratios else 1.0,
        )

    def _window_ratios(self, recorder: AvailabilityRecorder) -> List[float]:
        """Per-window delivered/nominal ratios from the recorder's segments.

        Segments are split at window boundaries (anchored at the start of
        the measured span), so each window integrates exactly its share; a
        trailing partial window is ratioed against its own covered span.
        """
        capacity = float(recorder.nominal_cpu_capacity())
        if capacity <= 0:
            return []
        width = self.window_seconds
        origin = recorder.start_time
        delivered: Dict[int, float] = {}
        covered: Dict[int, float] = {}
        for start, end, up in recorder.segments:
            t = float(start)
            end = float(end)
            up = float(up)
            while t < end - 1e-12:
                index = int((t - origin) // width)
                boundary = origin + (index + 1) * width
                seg_end = end if boundary <= t else min(end, boundary)
                delivered[index] = delivered.get(index, 0.0) + up * (seg_end - t)
                covered[index] = covered.get(index, 0.0) + (seg_end - t)
                t = seg_end
        return [
            delivered[index] / (capacity * covered[index])
            for index in sorted(covered)
            if covered[index] > 0
        ]

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        recorder = observers["availability"]
        assert isinstance(recorder, AvailabilityRecorder)
        capacities = Moments()
        capacities.add(float(recorder.nominal_cpu_capacity()))
        # Per-window availability ratios pool into moments instead of
        # travelling as per-window accumulators: instances of different
        # lengths produce different window sets, and the campaign merge
        # contract (merge_bundles) requires identical name sets.
        windows = Moments()
        windows.update(self._window_ratios(recorder))
        return {
            "delivered": _tally(recorder.delivered_cpu_seconds()),
            "duration": _tally(recorder.duration()),
            "capacity": capacities,
            "windows": windows,
        }

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        capacity = float(merged["capacity"].mean) if merged["capacity"].n else 0.0
        windows = merged["windows"]
        return self._row(
            float(merged["delivered"].total),
            capacity * float(merged["duration"].total),
            int(windows.n),
            float(windows.minimum) if windows.n else 1.0,
            float(windows.mean) if windows.n else 1.0,
        )


class InvariantsCollector(MetricCollector):
    """Run the cell under :class:`~repro.core.invariants.InvariantCheckingObserver`.

    The observer raises on the first capacity / lifecycle / yield / clock
    violation, so a finished row means every event passed; the one column
    says how many were checked (summed over a cell's instances when a
    streaming campaign merges them).  The checker keeps only the specs of
    active jobs, so it runs in streaming campaigns too.
    """

    name = "invariants"
    streaming_capable = True

    def observers(self, streaming: bool) -> Dict[str, SimulationObserver]:
        return {"invariants": InvariantCheckingObserver()}

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        checker = observers["invariants"]
        assert isinstance(checker, InvariantCheckingObserver)
        return {"invariant_events_checked": checker.checked_events}

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        checker = observers["invariants"]
        assert isinstance(checker, InvariantCheckingObserver)
        return {"events": _tally(checker.checked_events)}

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        return {"invariant_events_checked": int(merged["events"].total)}


COLLECTORS: Registry[MetricCollector] = Registry("metric collector")
register_collector = COLLECTORS.register
available_collectors = COLLECTORS.available
create_collector = COLLECTORS.create

register_collector("stretch", StretchCollector)
register_collector("costs", CostCollector)
register_collector("timing", TimingCollector)
register_collector("fairness", FairnessCollector)
register_collector("utilization", UtilizationCollector)
register_collector("availability", AvailabilityCollector)
register_collector("invariants", InvariantsCollector)


# The SLO/goodput collectors live with the observability layer but register
# here, so every process that can name a collector (campaign workers
# included) sees the complete registry.  The import must stay below the
# definitions above — repro.obs.slo imports MetricCollector and
# register_collector back from this module.
from ..obs import slo as _slo  # noqa: E402  (registration side effect)

del _slo
