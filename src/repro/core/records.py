"""Per-job and per-run result records.

:class:`SimulationResult` is what :meth:`repro.core.engine.Simulator.run`
returns: the full set of per-job records plus the preemption/migration cost
tally needed for Table II and the scheduler-computation timing needed for the
§V feasibility discussion.

In streaming-metrics mode (``SimulationConfig(streaming_metrics=True)``) the
per-job list is replaced by mergeable online summaries: ``jobs`` stays empty
and ``job_stats`` (a :class:`repro.metrics.JobMetricsAccumulator`) carries
exact count/mean/min/max stretch statistics plus sketched quantiles, so the
result's memory footprint is independent of trace length.  The headline
properties (``max_stretch``, ``mean_stretch``, ``mean_turnaround``,
``num_jobs``, the scheduler-timing reductions) consult whichever form is
present, so analysis code works unchanged in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ReproError
from ..metrics import JobMetricsAccumulator, Moments, bounded_stretch, nearest_rank
from .cluster import Cluster
from .job import JobSpec

__all__ = ["JobRecord", "CostSummary", "SimulationResult"]


@dataclass(frozen=True)
class JobRecord:
    """Outcome of a single job in a finished simulation."""

    spec: JobSpec
    first_start_time: float
    completion_time: float
    preemptions: int
    migrations: int

    @property
    def turnaround_time(self) -> float:
        return self.completion_time - self.spec.submit_time

    @property
    def wait_time(self) -> float:
        """Time between submission and the first allocation of resources."""
        return self.first_start_time - self.spec.submit_time

    @property
    def stretch(self) -> float:
        """Bounded stretch of the job (30-second bound, paper §II-B2)."""
        return bounded_stretch(self.turnaround_time, self.spec.execution_time)


@dataclass
class CostSummary:
    """Aggregate preemption/migration cost tally for one simulation run.

    ``node_failures`` counts node-down events applied during the run (zero
    unless the platform carries an availability trace).  ``failure_job_kills``
    counts jobs killed and resubmitted by the ``"resubmit"`` failure policy;
    jobs checkpointed by the ``"migrate"`` policy are tallied as ordinary
    preemptions (that is exactly what they cost).
    """

    preemption_count: int = 0
    migration_count: int = 0
    preemption_gb: float = 0.0
    migration_gb: float = 0.0
    node_failures: int = 0
    failure_job_kills: int = 0
    #: Overhead-model charges (zero unless the run carries an overhead
    #: model): number of charged events and total seconds charged.
    overhead_events: int = 0
    overhead_seconds: float = 0.0

    def record_preemption(self, gb: float) -> None:
        self.preemption_count += 1
        self.preemption_gb += gb

    def record_migration(self, gb: float) -> None:
        self.migration_count += 1
        self.migration_gb += gb

    def record_node_failure(self) -> None:
        self.node_failures += 1

    def record_failure_kill(self) -> None:
        self.failure_job_kills += 1

    def record_overhead(self, seconds: float) -> None:
        self.overhead_events += 1
        self.overhead_seconds += seconds


@dataclass
class SimulationResult:
    """Complete outcome of one simulation run."""

    algorithm: str
    cluster: Cluster
    jobs: List[JobRecord]
    costs: CostSummary
    makespan: float
    #: Wall-clock seconds spent inside scheduler invocations, one per event.
    scheduler_times: List[float] = field(default_factory=list)
    #: Number of jobs the scheduler was handling at each invocation.
    scheduler_job_counts: List[int] = field(default_factory=list)
    #: Time-integral of the number of idle nodes (node·seconds), for the
    #: energy/under-subscription observation of §II-B2.
    idle_node_seconds: float = 0.0
    #: Streaming-metrics summaries (replace ``jobs`` when the engine ran
    #: with ``streaming_metrics=True``; None in the default mode).
    job_stats: Optional[JobMetricsAccumulator] = None
    scheduler_time_stats: Optional[Moments] = None
    scheduler_job_count_stats: Optional[Moments] = None
    #: Energy consumed over the run under the platform's per-node-class
    #: power draw (0.0 unless the platform declares node power).
    energy_joules: float = 0.0

    @property
    def is_streaming(self) -> bool:
        """True when per-job records were reduced to online summaries."""
        return self.job_stats is not None

    # -- stretch statistics ----------------------------------------------------
    def stretches(self) -> np.ndarray:
        """Bounded stretch of every job, as an array.

        Only available with materialized per-job records; a streaming-metrics
        result has no per-job distribution to return.
        """
        if self.is_streaming and not self.jobs:
            raise ReproError(
                "per-job stretches are not materialized in streaming-metrics "
                "mode; use job_stats (moments/quantile sketch) instead"
            )
        return np.array([record.stretch for record in self.jobs], dtype=float)

    @property
    def max_stretch(self) -> float:
        """Maximum bounded stretch (the paper's headline metric).

        Exact in both modes: the streaming accumulator tracks the maximum
        exactly.
        """
        if self.is_streaming and not self.jobs:
            return self.job_stats.stretch.maximum if self.job_stats.count else 0.0
        values = self.stretches()
        return float(values.max()) if values.size else 0.0

    @property
    def mean_stretch(self) -> float:
        if self.is_streaming and not self.jobs:
            return self.job_stats.stretch.mean if self.job_stats.count else 0.0
        values = self.stretches()
        return float(values.mean()) if values.size else 0.0

    def stretch_quantile(self, q: float) -> float:
        """Bounded-stretch quantile, ``q`` in [0, 1].

        Exact (NumPy nearest-rank over the records) in the default mode;
        within the sketch's documented relative-error bound in streaming
        mode.
        """
        if not (0.0 <= q <= 1.0):
            raise ReproError(f"quantile q must be in [0, 1], got {q}")
        if self.is_streaming and not self.jobs:
            return self.job_stats.stretch_quantile(q)
        values = np.sort(self.stretches())
        if not values.size:
            raise ReproError("run finished no jobs; no stretch quantiles")
        return float(values[nearest_rank(q, values.size) - 1])

    @property
    def mean_turnaround(self) -> float:
        if self.is_streaming and not self.jobs:
            return self.job_stats.turnaround.mean if self.job_stats.count else 0.0
        if not self.jobs:
            return 0.0
        return float(np.mean([record.turnaround_time for record in self.jobs]))

    # -- Table II style cost statistics ---------------------------------------
    @property
    def num_jobs(self) -> int:
        if self.is_streaming and not self.jobs:
            return self.job_stats.count
        return len(self.jobs)

    def _hours(self) -> float:
        return max(self.makespan, 1e-9) / 3600.0

    def preemptions_per_hour(self) -> float:
        return self.costs.preemption_count / self._hours()

    def migrations_per_hour(self) -> float:
        return self.costs.migration_count / self._hours()

    def preemptions_per_job(self) -> float:
        return self.costs.preemption_count / max(1, self.num_jobs)

    def migrations_per_job(self) -> float:
        return self.costs.migration_count / max(1, self.num_jobs)

    def preemption_bandwidth_gb_per_sec(self) -> float:
        return self.costs.preemption_gb / max(self.makespan, 1e-9)

    def migration_bandwidth_gb_per_sec(self) -> float:
        return self.costs.migration_gb / max(self.makespan, 1e-9)

    # -- scheduler timing ------------------------------------------------------
    def mean_scheduler_time(self) -> float:
        if self.scheduler_time_stats is not None and not self.scheduler_times:
            stats = self.scheduler_time_stats
            return stats.mean if stats.count else 0.0
        return float(np.mean(self.scheduler_times)) if self.scheduler_times else 0.0

    def max_scheduler_time(self) -> float:
        if self.scheduler_time_stats is not None and not self.scheduler_times:
            stats = self.scheduler_time_stats
            return stats.maximum if stats.count else 0.0
        return float(np.max(self.scheduler_times)) if self.scheduler_times else 0.0

    # -- utilization -----------------------------------------------------------
    def mean_idle_nodes(self) -> float:
        """Average number of idle nodes over the run."""
        if self.makespan <= 0:
            return float(self.cluster.num_nodes)
        return self.idle_node_seconds / self.makespan

    def record_for(self, job_id: int) -> Optional[JobRecord]:
        """Record of a given job id, or ``None`` if it is not in this run."""
        for record in self.jobs:
            if record.spec.job_id == job_id:
                return record
        return None

    def summary(self) -> Dict[str, float]:
        """Compact dictionary of headline statistics for reporting."""
        return {
            "algorithm_max_stretch": self.max_stretch,
            "mean_stretch": self.mean_stretch,
            "mean_turnaround": self.mean_turnaround,
            "preemptions_per_job": self.preemptions_per_job(),
            "migrations_per_job": self.migrations_per_job(),
            "makespan": self.makespan,
        }
