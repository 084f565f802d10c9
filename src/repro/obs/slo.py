"""SLO-flavoured campaign collectors: JCT, attainment, windowed goodput.

The paper's headline metric is stretch, but operators of a real DFRS
deployment quote *service-level* numbers: job completion time (JCT)
quantiles, the fraction of jobs finishing inside their SLO deadline, and
sustained goodput.  This module adds both as ordinary campaign collectors —
``{"name": "slo", "slo_factor": 5}`` and ``{"name": "goodput",
"window_seconds": 3600}`` in a scenario's ``collectors`` list — with full
streaming support on the mergeable :mod:`repro.metrics` accumulators, so
bounded-memory campaigns over million-job traces carry them too.

**SLO attainment** uses the deadline convention of the cloud-scheduling
literature: job *j* attains its SLO iff ::

    completion_time(j) <= submit_time(j) + slo_factor * execution_time(j)

i.e. turnaround ≤ ``slo_factor`` × nominal runtime — equivalently, raw
stretch ≤ ``slo_factor``.  Materialized campaigns evaluate the predicate
exactly per job; streaming campaigns count mass at or below ``slo_factor``
in the merged stretch sketch, which is exact for jobs with nominal runtime
≥ 30 s (below that, the engine's *bounded* stretch divides by 30 s instead,
making short jobs look slightly better — the same convention every stretch
column of this repo already uses) and has the sketch's documented relative
error at the ``slo_factor`` boundary.

**Goodput** is delivered *useful* work: completed jobs only (work lost to
failure-kills or still in flight does not count), measured as
``num_tasks × cpu_need × execution_time`` CPU-seconds per completed job.
The windowed columns cut the run into fixed windows anchored at the first
submission, tallied by the collector's own observer in both campaign modes,
so a soak or a diurnal trace shows throughput floors per window, not just
the whole-run mean.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from ..campaign.collectors import MetricCollector, register_collector
from ..core.observers import SimEvent, SimulationObserver
from ..core.records import SimulationResult
from ..exceptions import ConfigurationError
from ..metrics import Accumulator, Moments, SumAccumulator
from ..traces.model import Workload

__all__ = ["SloCollector", "GoodputCollector", "CompletionWindows"]

#: Default SLO factor: completion within 10x the job's nominal runtime.
DEFAULT_SLO_FACTOR = 10.0


class SloCollector(MetricCollector):
    """JCT quantiles and SLO attainment; see the module docstring.

    Columns: ``slo_factor``, ``slo_total``, ``slo_attained``,
    ``slo_attainment`` (fraction in [0, 1]), ``jct_mean``, ``jct_p50``,
    ``jct_p90``, ``jct_p99``, ``jct_max`` (seconds).
    """

    name = "slo"
    streaming_capable = True

    def __init__(self, *, slo_factor: float = DEFAULT_SLO_FACTOR) -> None:
        factor = float(slo_factor)
        if not np.isfinite(factor) or factor <= 0.0:
            raise ConfigurationError(
                f"slo_factor must be positive and finite, got {slo_factor!r}"
            )
        self.slo_factor = factor

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        turnarounds = [record.turnaround_time for record in result.jobs]
        attained = sum(
            1
            for record in result.jobs
            if record.turnaround_time
            <= self.slo_factor * record.spec.execution_time
        )
        total = len(turnarounds)
        if total:
            jct = np.asarray(turnarounds, dtype=float)
            quantiles = {
                "jct_p50": float(np.percentile(jct, 50.0)),
                "jct_p90": float(np.percentile(jct, 90.0)),
                "jct_p99": float(np.percentile(jct, 99.0)),
            }
        else:
            quantiles = {"jct_p50": 0.0, "jct_p90": 0.0, "jct_p99": 0.0}
        return {
            "slo_factor": self.slo_factor,
            "slo_total": total,
            "slo_attained": attained,
            "slo_attainment": attained / total if total else 1.0,
            "jct_mean": float(np.mean(turnarounds)) if total else 0.0,
            "jct_max": float(np.max(turnarounds)) if total else 0.0,
            **quantiles,
        }

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        return {"jobs": self._require_job_stats(result)}

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        job_stats = merged["jobs"]
        turnaround = job_stats.turnaround
        sketch = job_stats.turnaround_sketch
        total = int(turnaround.n)
        # Attainment = mass at or below slo_factor in the stretch sketch
        # (raw stretch <= factor <=> turnaround <= factor x runtime; the
        # 30 s bounded-stretch floor and the sketch's relative error are the
        # two documented approximations of the streaming path).
        attained = 0
        for value, count in job_stats.stretch_sketch.bucket_masses():
            if value <= self.slo_factor:
                attained += count
            else:
                break
        return {
            "slo_factor": self.slo_factor,
            "slo_total": total,
            "slo_attained": attained,
            "slo_attainment": attained / total if total else 1.0,
            "jct_mean": float(turnaround.mean) if total else 0.0,
            "jct_p50": sketch.quantile(0.50) if total else 0.0,
            "jct_p90": sketch.quantile(0.90) if total else 0.0,
            "jct_p99": sketch.quantile(0.99) if total else 0.0,
            "jct_max": float(turnaround.maximum) if total else 0.0,
        }


class CompletionWindows(SimulationObserver):
    """Per-window completion tally: window index -> ``[completions, work]``.

    Windows are ``width`` seconds wide and anchored at the run's first
    submission; work is ``num_tasks × cpu_need × execution_time`` of each job
    completing in the window.  Memory is one entry per window that saw a
    completion.
    """

    windows: Dict[int, List[float]]

    def __init__(self, width: float) -> None:
        self.width = width

    def on_event(self, event: SimEvent) -> None:
        if event.kind == "complete":
            spec = event.spec
            index = int((event.time - self._origin) // self.width)
            tally = self.windows.get(index)
            if tally is None:
                tally = self.windows[index] = [0.0, 0.0]
            tally[0] += 1.0
            tally[1] += spec.num_tasks * spec.cpu_need * spec.execution_time
        elif event.kind == "run-start":
            self.windows = {}
            self._origin = event.time


class GoodputCollector(MetricCollector):
    """Whole-run and per-window goodput/throughput; see the module docstring.

    Columns: ``jobs_per_hour`` (completions over the makespan),
    ``goodput_node_seconds`` (delivered useful CPU-seconds),
    ``goodput_fraction`` (share of nominal capacity over the makespan spent
    on work that completed), ``goodput_windows``, and per-window summaries
    ``mean/min/max_window_jobs_per_hour`` and ``mean/min_window_goodput``
    (CPU-seconds per window second, i.e. mean CPUs usefully busy).

    Windows of ``window_seconds`` are anchored at the first submission and
    tallied by a :class:`CompletionWindows` observer in both campaign modes.
    Empty interior windows count as zero — a throughput *floor* must see the
    silent hour, not skip it.
    """

    name = "goodput"
    streaming_capable = True

    def __init__(self, *, window_seconds: float = 3600.0) -> None:
        window = float(window_seconds)
        if not np.isfinite(window) or window <= 0.0:
            raise ConfigurationError(
                f"goodput window_seconds must be positive and finite, "
                f"got {window_seconds!r}"
            )
        self.window_seconds = window

    def observers(self, streaming: bool) -> Dict[str, SimulationObserver]:
        return {"windows": CompletionWindows(self.window_seconds)}

    def _row(
        self,
        *,
        completions: float,
        work: float,
        makespan: float,
        capacity: float,
        window_jobs: List[float],
        window_work: List[float],
    ) -> Dict[str, Any]:
        width = self.window_seconds
        per_hour = [count / (width / 3600.0) for count in window_jobs]
        per_second = [w / width for w in window_work]
        nominal = capacity * makespan
        return {
            "jobs_per_hour": (
                completions / (makespan / 3600.0) if makespan > 0 else 0.0
            ),
            "goodput_node_seconds": work,
            "goodput_fraction": work / nominal if nominal > 0 else 0.0,
            "goodput_windows": len(window_jobs),
            "mean_window_jobs_per_hour": (
                float(np.mean(per_hour)) if per_hour else 0.0
            ),
            "min_window_jobs_per_hour": (
                float(np.min(per_hour)) if per_hour else 0.0
            ),
            "max_window_jobs_per_hour": (
                float(np.max(per_hour)) if per_hour else 0.0
            ),
            "mean_window_goodput": (
                float(np.mean(per_second)) if per_second else 0.0
            ),
            "min_window_goodput": (
                float(np.min(per_second)) if per_second else 0.0
            ),
        }

    @staticmethod
    def _dense_windows(
        observers: Mapping[str, SimulationObserver],
    ) -> Tuple[List[float], List[float]]:
        """Windows 0..last as dense completion / work lists, interior gaps
        explicit zeros."""
        tally = observers["windows"]
        assert isinstance(tally, CompletionWindows)
        if not tally.windows:
            return [], []
        dense = [
            tally.windows.get(index, (0.0, 0.0))
            for index in range(max(tally.windows) + 1)
        ]
        return [jobs for jobs, _ in dense], [work for _, work in dense]

    def collect(
        self,
        result: SimulationResult,
        observers: Mapping[str, SimulationObserver],
        workload: Workload,
    ) -> Dict[str, Any]:
        window_jobs, window_work = self._dense_windows(observers)
        return self._row(
            completions=float(sum(window_jobs)),
            work=float(sum(window_work)),
            makespan=float(result.makespan),
            capacity=float(result.cluster.total_cpu_capacity()),
            window_jobs=window_jobs,
            window_work=window_work,
        )

    def stream_partials(
        self, result: SimulationResult, observers: Mapping[str, SimulationObserver]
    ) -> Dict[str, Accumulator]:
        window_jobs, window_work = self._dense_windows(observers)
        # Per-window tallies pool into moments (count/mean/min/max stay
        # exact) instead of travelling per-window: the campaign merge
        # contract requires identical bundle name sets across instances.
        jobs_moments = Moments()
        jobs_moments.update(window_jobs)
        work_moments = Moments()
        work_moments.update(window_work)
        makespan = float(result.makespan)
        capacity = float(result.cluster.total_cpu_capacity())
        return {
            "completions": SumAccumulator(
                total=float(sum(window_jobs)), n=1
            ),
            "work": SumAccumulator(total=float(sum(window_work)), n=1),
            "span_seconds": SumAccumulator(total=makespan, n=1),
            "capacity_seconds": SumAccumulator(
                total=capacity * makespan, n=1
            ),
            "window_jobs": jobs_moments,
            "window_work": work_moments,
        }

    def stream_finalize(self, merged: Mapping[str, Any]) -> Dict[str, Any]:
        width = self.window_seconds
        window_jobs = merged["window_jobs"]
        window_work = merged["window_work"]
        span = float(merged["span_seconds"].total)
        capacity_seconds = float(merged["capacity_seconds"].total)
        completions = float(merged["completions"].total)
        work = float(merged["work"].total)
        row = {
            "jobs_per_hour": (
                completions / (span / 3600.0) if span > 0 else 0.0
            ),
            "goodput_node_seconds": work,
            "goodput_fraction": (
                work / capacity_seconds if capacity_seconds > 0 else 0.0
            ),
            "goodput_windows": int(window_jobs.n),
            "mean_window_jobs_per_hour": 0.0,
            "min_window_jobs_per_hour": 0.0,
            "max_window_jobs_per_hour": 0.0,
            "mean_window_goodput": 0.0,
            "min_window_goodput": 0.0,
        }
        if window_jobs.n:
            row["mean_window_jobs_per_hour"] = window_jobs.mean / (
                width / 3600.0
            )
            row["min_window_jobs_per_hour"] = window_jobs.minimum / (
                width / 3600.0
            )
            row["max_window_jobs_per_hour"] = window_jobs.maximum / (
                width / 3600.0
            )
        if window_work.n:
            row["mean_window_goodput"] = window_work.mean / width
            row["min_window_goodput"] = window_work.minimum / width
        return row


register_collector(SloCollector.name, SloCollector)
register_collector(GoodputCollector.name, GoodputCollector)
