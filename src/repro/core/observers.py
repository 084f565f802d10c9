"""Observer hooks for the simulation engine.

The engine exposes a small observer protocol so that analysis tooling can
watch a simulation unfold without the engine having to know anything about
what is being measured.  Observers receive callbacks for the lifecycle of
every job (submission, start, preemption, resume, migration, completion) and
for every applied allocation decision.

Three ready-made observers cover the needs of :mod:`repro.analysis`:

* :class:`EventLogRecorder` — flat, ordered log of everything that happened,
  convenient for debugging and for asserting engine behaviour in tests;
* :class:`AllocationTraceRecorder` — per-job allocation intervals (who ran
  where, at which yield, from when to when), the raw material of Gantt-style
  analyses and per-job yield profiles;
* :class:`UtilizationRecorder` — per-event snapshots of cluster-wide CPU,
  memory, and job-population counters, the raw material of utilization and
  energy studies (paper §II-B2's "turn off idle nodes" remark).

Observers must never mutate the objects they are handed; the engine passes
immutable specs/allocations and copies of aggregate counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .allocation import JobAllocation
from .cluster import Cluster
from .job import JobSpec

__all__ = [
    "SimulationObserver",
    "ObservedEvent",
    "EventLogRecorder",
    "AllocationInterval",
    "AllocationTraceRecorder",
    "UtilizationSample",
    "UtilizationRecorder",
    "AvailabilityRecorder",
]


class SimulationObserver:
    """Base class with no-op hooks; subclass and override what you need.

    The engine calls the hooks in this order within one event:
    ``on_job_submitted`` (for each submission), ``on_job_completed`` (for each
    completion), then one of ``on_job_started`` / ``on_job_preempted`` /
    ``on_job_resumed`` / ``on_job_migrated`` / ``on_yield_changed`` per
    affected job, and finally ``on_allocation_applied`` with the full running
    set.  ``on_simulation_start`` / ``on_simulation_end`` bracket the run.
    """

    def on_simulation_start(self, cluster: Cluster, start_time: float) -> None:
        """Called once before the first event is processed."""

    def on_job_submitted(self, time: float, spec: JobSpec) -> None:
        """Called when a job's submission event fires."""

    def on_job_started(
        self, time: float, spec: JobSpec, allocation: JobAllocation
    ) -> None:
        """Called the first (and any subsequent) time a pending job starts."""

    def on_job_preempted(self, time: float, spec: JobSpec) -> None:
        """Called when a running job is paused (memory saved to storage)."""

    def on_job_evicted(
        self, time: float, spec: JobSpec, node: int, killed: bool
    ) -> None:
        """Called when a node failure evicts a running job, just before the
        matching :meth:`on_job_preempted`.

        ``node`` is the failed node and ``killed`` distinguishes the two
        failure policies: ``True`` under ``"resubmit"`` (progress lost, job
        requeued from scratch) and ``False`` under ``"migrate"`` (job
        checkpointed like an ordinary preemption).  Scheduler-initiated
        preemptions never pass through this hook, so observers that need
        *cause* attribution (the flight recorder) can tell the two apart.
        """

    def on_job_resumed(
        self, time: float, spec: JobSpec, allocation: JobAllocation
    ) -> None:
        """Called when a paused job is given resources again."""

    def on_job_migrated(
        self,
        time: float,
        spec: JobSpec,
        old_nodes: Tuple[int, ...],
        allocation: JobAllocation,
    ) -> None:
        """Called when a running job's node multiset changes."""

    def on_yield_changed(
        self, time: float, spec: JobSpec, old_yield: float, new_yield: float
    ) -> None:
        """Called when only the CPU fraction of a running job changes."""

    def on_job_completed(self, time: float, spec: JobSpec) -> None:
        """Called when a job finishes all of its work."""

    def on_job_cancelled(self, time: float, spec: JobSpec) -> None:
        """Called when an online cancel withdraws an arrived job.

        Terminal like ``on_job_completed``: the job is gone from the engine,
        releasing its nodes if it was running, and no hook names it again.
        """

    def on_node_down(self, time: float, node: int) -> None:
        """Called when a node fails (platform availability trace).

        Also called once at the start of the run, at the first submission
        instant and right after ``on_simulation_start``, for every node the
        trace left down before it (in node order), so observers begin from
        the scheduler's view of the platform.

        Jobs evicted by the failure are additionally reported through
        ``on_job_preempted`` (both failure policies close their allocation
        the same way; only the engine-side bookkeeping differs).
        """

    def on_node_up(self, time: float, node: int) -> None:
        """Called when a previously failed node is repaired."""

    def on_allocation_applied(
        self, time: float, running: Dict[int, JobAllocation]
    ) -> None:
        """Called after every event with the complete set of running jobs."""

    def on_simulation_end(self, time: float) -> None:
        """Called once after the last event has been processed."""


# --------------------------------------------------------------------------- #
# Event log                                                                    #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ObservedEvent:
    """One entry of the :class:`EventLogRecorder` log."""

    time: float
    kind: str
    job_id: Optional[int] = None
    detail: str = ""


class EventLogRecorder(SimulationObserver):
    """Record a flat, time-ordered log of everything the engine did.

    The ``kind`` field takes the values ``"submit"``, ``"start"``,
    ``"preempt"``, ``"resume"``, ``"migrate"``, ``"yield"``, ``"complete"``,
    ``"sim-start"``, and ``"sim-end"``.
    """

    def __init__(self) -> None:
        self.events: List[ObservedEvent] = []

    def _record(self, time: float, kind: str, job_id: Optional[int] = None, detail: str = "") -> None:
        self.events.append(ObservedEvent(time=time, kind=kind, job_id=job_id, detail=detail))

    def on_simulation_start(self, cluster: Cluster, start_time: float) -> None:
        self._record(start_time, "sim-start", detail=f"nodes={cluster.num_nodes}")

    def on_job_submitted(self, time: float, spec: JobSpec) -> None:
        self._record(time, "submit", spec.job_id)

    def on_job_started(self, time: float, spec: JobSpec, allocation: JobAllocation) -> None:
        self._record(time, "start", spec.job_id, detail=f"yield={allocation.yield_value:.3f}")

    def on_job_preempted(self, time: float, spec: JobSpec) -> None:
        self._record(time, "preempt", spec.job_id)

    def on_job_resumed(self, time: float, spec: JobSpec, allocation: JobAllocation) -> None:
        self._record(time, "resume", spec.job_id, detail=f"yield={allocation.yield_value:.3f}")

    def on_job_migrated(
        self,
        time: float,
        spec: JobSpec,
        old_nodes: Tuple[int, ...],
        allocation: JobAllocation,
    ) -> None:
        self._record(
            time,
            "migrate",
            spec.job_id,
            detail=f"{sorted(old_nodes)}->{sorted(allocation.nodes)}",
        )

    def on_yield_changed(
        self, time: float, spec: JobSpec, old_yield: float, new_yield: float
    ) -> None:
        self._record(time, "yield", spec.job_id, detail=f"{old_yield:.3f}->{new_yield:.3f}")

    def on_job_completed(self, time: float, spec: JobSpec) -> None:
        self._record(time, "complete", spec.job_id)

    def on_simulation_end(self, time: float) -> None:
        self._record(time, "sim-end")

    # -- queries ---------------------------------------------------------------
    def events_of_kind(self, kind: str) -> List[ObservedEvent]:
        """All recorded events of the given kind, in time order."""
        return [event for event in self.events if event.kind == kind]

    def events_of_job(self, job_id: int) -> List[ObservedEvent]:
        """All recorded events concerning the given job, in time order."""
        return [event for event in self.events if event.job_id == job_id]

    def count(self, kind: str) -> int:
        """Number of recorded events of the given kind."""
        return sum(1 for event in self.events if event.kind == kind)


# --------------------------------------------------------------------------- #
# Allocation trace                                                             #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AllocationInterval:
    """A maximal interval during which one job kept one placement and yield."""

    job_id: int
    start: float
    end: float
    nodes: Tuple[int, ...]
    yield_value: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def virtual_time(self) -> float:
        """Virtual time accrued during this interval (duration × yield).

        This slightly overestimates the true virtual time of intervals during
        which the job was paying a rescheduling penalty (zero progress); the
        engine's own accounting remains authoritative.
        """
        return self.duration * self.yield_value


class AllocationTraceRecorder(SimulationObserver):
    """Record per-job allocation intervals over the whole simulation.

    After the run, :attr:`intervals` holds one :class:`AllocationInterval` per
    maximal period during which a job's placement and yield were constant.
    """

    def __init__(self) -> None:
        self.intervals: List[AllocationInterval] = []
        self._open: Dict[int, Tuple[float, Tuple[int, ...], float]] = {}
        self._last_time = 0.0

    def on_simulation_start(self, cluster: Cluster, start_time: float) -> None:
        self.intervals = []
        self._open = {}
        self._last_time = start_time

    def on_allocation_applied(self, time: float, running: Dict[int, JobAllocation]) -> None:
        self._last_time = max(self._last_time, time)
        # Close intervals for jobs that stopped running or changed allocation.
        for job_id in list(self._open):
            start, nodes, yield_value = self._open[job_id]
            alloc = running.get(job_id)
            if alloc is None or tuple(alloc.nodes) != nodes or alloc.yield_value != yield_value:
                self._close(job_id, time)
        # Open intervals for new placements.
        for job_id, alloc in running.items():
            if job_id not in self._open:
                self._open[job_id] = (time, tuple(alloc.nodes), alloc.yield_value)

    def on_job_completed(self, time: float, spec: JobSpec) -> None:
        if spec.job_id in self._open:
            self._close(spec.job_id, time)

    def on_simulation_end(self, time: float) -> None:
        for job_id in list(self._open):
            self._close(job_id, time)

    def _close(self, job_id: int, end: float) -> None:
        start, nodes, yield_value = self._open.pop(job_id)
        if end > start:
            self.intervals.append(
                AllocationInterval(
                    job_id=job_id,
                    start=start,
                    end=end,
                    nodes=nodes,
                    yield_value=yield_value,
                )
            )

    # -- queries ---------------------------------------------------------------
    def intervals_of_job(self, job_id: int) -> List[AllocationInterval]:
        """Intervals of one job, sorted by start time."""
        selected = [iv for iv in self.intervals if iv.job_id == job_id]
        return sorted(selected, key=lambda iv: iv.start)

    def job_ids(self) -> List[int]:
        """All job ids that ever held an allocation."""
        return sorted({iv.job_id for iv in self.intervals})

    def busy_node_seconds(self) -> float:
        """Sum over intervals of (number of distinct nodes used × duration)."""
        return sum(len(set(iv.nodes)) * iv.duration for iv in self.intervals)


# --------------------------------------------------------------------------- #
# Utilization trace                                                            #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class UtilizationSample:
    """Cluster-wide counters captured right after one event was processed."""

    time: float
    #: Number of distinct nodes hosting at least one running task.
    busy_nodes: int
    #: Sum over running jobs of (tasks × cpu_need × yield), in node units.
    cpu_allocated: float
    #: Sum over running jobs of (tasks × mem_requirement), in node units.
    memory_used: float
    running_jobs: int
    #: Yield of the worst-off running job (1.0 when nothing runs).
    min_yield: float


class UtilizationRecorder(SimulationObserver):
    """Record cluster-wide utilization counters after every event.

    The resulting samples form a right-continuous step function: the counters
    of sample *i* hold from ``samples[i].time`` until ``samples[i+1].time``.
    Conversion helpers into proper :class:`repro.analysis.timeseries.StepSeries`
    objects live in :mod:`repro.analysis.timeseries`.
    """

    def __init__(self) -> None:
        self.samples: List[UtilizationSample] = []
        self._specs: Dict[int, JobSpec] = {}
        self._cluster: Optional[Cluster] = None

    def on_simulation_start(self, cluster: Cluster, start_time: float) -> None:
        self.samples = []
        self._specs = {}
        self._cluster = cluster

    def on_job_submitted(self, time: float, spec: JobSpec) -> None:
        self._specs[spec.job_id] = spec

    def on_allocation_applied(self, time: float, running: Dict[int, JobAllocation]) -> None:
        busy = set()
        cpu = 0.0
        memory = 0.0
        min_yield = 1.0
        for job_id, alloc in running.items():
            spec = self._specs.get(job_id)
            if spec is None:  # pragma: no cover - defensive; submissions precede starts
                continue
            busy.update(alloc.nodes)
            cpu += spec.num_tasks * spec.cpu_need * alloc.yield_value
            memory += spec.num_tasks * spec.mem_requirement
            min_yield = min(min_yield, alloc.yield_value)
        self.samples.append(
            UtilizationSample(
                time=time,
                busy_nodes=len(busy),
                cpu_allocated=cpu,
                memory_used=memory,
                running_jobs=len(running),
                min_yield=min_yield if running else 1.0,
            )
        )

    def on_simulation_end(self, time: float) -> None:
        # The engine stops iterating as soon as the last job completes, so the
        # final completion does not go through an allocation decision; close
        # the trace with an explicit all-idle sample so that step series span
        # the full simulated interval.
        if self.samples and time > self.samples[-1].time:
            self.samples.append(
                UtilizationSample(
                    time=time,
                    busy_nodes=0,
                    cpu_allocated=0.0,
                    memory_used=0.0,
                    running_jobs=0,
                    min_yield=1.0,
                )
            )

    # -- queries ---------------------------------------------------------------
    def peak_busy_nodes(self) -> int:
        """Largest number of simultaneously busy nodes observed."""
        return max((sample.busy_nodes for sample in self.samples), default=0)

    def peak_cpu_allocated(self) -> float:
        """Largest total allocated CPU (in node units) observed."""
        return max((sample.cpu_allocated for sample in self.samples), default=0.0)

    def peak_memory_used(self) -> float:
        """Largest total memory usage (in node units) observed."""
        return max((sample.memory_used for sample in self.samples), default=0.0)


# --------------------------------------------------------------------------- #
# Availability measurement                                                     #
# --------------------------------------------------------------------------- #
class AvailabilityRecorder(SimulationObserver):
    """Measure delivered vs. nominal CPU capacity over the run.

    The aggregate CPU capacity of *up* nodes is a step function that only
    changes at node-down/node-up events; the recorder keeps it as a list of
    constant-capacity ``(start, end, up_cpu)`` segments.  On static
    platforms this is a single full-capacity segment and delivered equals
    nominal.  Memory is O(node events).
    """

    def __init__(self) -> None:
        #: Closed constant-capacity segments: ``(start, end, up_cpu)``.
        self.segments: List[Tuple[float, float, float]] = []
        self.start_time = 0.0
        self.end_time = 0.0
        self._cluster: Optional[Cluster] = None
        self._segment_start = 0.0
        self._up_cpu = 0.0
        self._down: set = set()

    def on_simulation_start(self, cluster: Cluster, start_time: float) -> None:
        self._cluster = cluster
        self.segments = []
        self._down = set()
        self.start_time = start_time
        self.end_time = start_time
        self._segment_start = start_time
        self._up_cpu = cluster.total_cpu_capacity()

    def _close_segment(self, time: float) -> None:
        if time > self._segment_start:
            self.segments.append((self._segment_start, time, self._up_cpu))
        self._segment_start = time

    def on_node_down(self, time: float, node: int) -> None:
        if node in self._down or self._cluster is None:
            return
        self._close_segment(time)
        self._down.add(node)
        self._up_cpu -= self._cluster.cpu_capacity(node)

    def on_node_up(self, time: float, node: int) -> None:
        if node not in self._down or self._cluster is None:
            return
        self._close_segment(time)
        self._down.discard(node)
        self._up_cpu += self._cluster.cpu_capacity(node)

    def on_simulation_end(self, time: float) -> None:
        self._close_segment(time)
        self.end_time = time

    # -- queries ---------------------------------------------------------------
    def nominal_cpu_capacity(self) -> float:
        """Aggregate CPU capacity of the whole cluster (all nodes up)."""
        return self._cluster.total_cpu_capacity() if self._cluster else 0.0

    def duration(self) -> float:
        """Measured span in simulated seconds."""
        return self.end_time - self.start_time

    def delivered_cpu_seconds(self) -> float:
        """Integral of up-node CPU capacity over the measured span."""
        return sum((end - start) * up for start, end, up in self.segments)
