"""The engine's event stream and the recorders built on it.

The engine announces every transition it makes as one immutable
:class:`SimEvent` passed to each attached observer's ``on_event``.  Events
carry *changes*, never states: an observer that needs to know what runs
where, or which nodes are down, keeps that map itself and updates it from
the deltas.  No event is built while no observer is attached.

The vocabulary (:data:`EVENT_KINDS`) and each kind's payload:

* ``run-start`` (``cluster``) and ``run-end`` bracket the run; nodes the
  availability trace left down before the first submission are announced
  as ``node-down`` events right after ``run-start``;
* ``submit`` (``spec``) when a job arrives;
* ``start`` / ``resume`` (``nodes`` taken, ``yield_value``);
* ``migrate`` (``nodes`` taken, ``yield_value``, ``old_nodes`` left) and
  ``yield`` (``nodes`` held, ``yield_value``, ``old_yield``);
* the closing kinds (:data:`CLOSING_KINDS`) ``preempt``, ``checkpoint``,
  ``failure-kill``, ``complete`` and ``cancel`` carry the ``nodes`` they
  vacate (empty when a cancelled job held none); ``checkpoint`` and
  ``failure-kill`` are the two failure policies' evictions and also name
  the failed ``node``;
* ``node-down`` / ``node-up`` (``node``); a ``node-down`` precedes the
  evictions it causes;
* ``applied``, payload-free, once per applied scheduling decision, after
  that decision's transitions.

Within one engine event the order is: completions, then the queued
arrivals and node events, then the decision's transitions in arrival order,
then ``applied``.  An online cancel emits ``cancel`` between events.

Two ready-made recorders:

* :class:`UtilizationRecorder` — per-decision samples of cluster-wide CPU,
  memory, and job-population counters, the raw material of the
  :mod:`repro.analysis` utilization and energy series (paper §II-B2's "turn
  off idle nodes" remark) and of the ``utilization`` collector;
* :class:`AvailabilityRecorder` — delivered vs. nominal CPU capacity, read
  by the ``availability`` collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cluster import Cluster
from .job import JobSpec

__all__ = [
    "EVENT_KINDS",
    "CLOSING_KINDS",
    "SimEvent",
    "SimulationObserver",
    "UtilizationSample",
    "UtilizationRecorder",
    "AvailabilityRecorder",
]

#: Every kind of :class:`SimEvent` the engine emits.
EVENT_KINDS = (
    "run-start",
    "submit",
    "start",
    "preempt",
    "checkpoint",
    "failure-kill",
    "migrate",
    "yield",
    "resume",
    "complete",
    "cancel",
    "node-down",
    "node-up",
    "applied",
    "run-end",
)

#: Kinds that end a job's running interval; each carries the vacated nodes.
CLOSING_KINDS = frozenset({"preempt", "checkpoint", "failure-kill", "complete", "cancel"})

#: Kinds after which the job runs on ``nodes`` at ``yield_value``.
_ALLOCATING_KINDS = frozenset({"start", "resume", "migrate", "yield"})


class SimEvent(NamedTuple):
    """One engine transition; the fields a kind does not use keep defaults."""

    kind: str
    time: float
    spec: Optional[JobSpec] = None
    #: Nodes taken (start / resume / migrate), held (yield) or vacated
    #: (the closing kinds).
    nodes: Tuple[int, ...] = ()
    #: The job's yield after a start / resume / migrate / yield.
    yield_value: float = 0.0
    #: The nodes a migrate left.
    old_nodes: Tuple[int, ...] = ()
    #: The yield before a yield change.
    old_yield: float = 0.0
    #: The node of a node-down / node-up, and the failed node of a
    #: checkpoint / failure-kill.
    node: int = -1
    #: The platform, on run-start only.
    cluster: Optional[Cluster] = None


class SimulationObserver:
    """Base class of engine observers: override :meth:`on_event`.

    Any object with an ``on_event(event)`` method is an observer; the base
    class only documents the protocol.  Observers must never mutate what
    they are handed.
    """

    def on_event(self, event: SimEvent) -> None:
        """Called once per engine transition, in emission order."""


# --------------------------------------------------------------------------- #
# Utilization trace                                                            #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class UtilizationSample:
    """Cluster-wide counters captured right after one decision was applied."""

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


_ARRIVAL = itemgetter(0)


class UtilizationRecorder(SimulationObserver):
    """Record cluster-wide utilization counters after every applied decision.

    The recorder keeps its own running map, ``job id -> (arrival rank, spec,
    nodes, yield)``, from the transition events and sums it from scratch at
    each ``applied``, in arrival order.  The resulting samples form a
    right-continuous step function: the counters of sample *i* hold from
    ``samples[i].time`` until ``samples[i+1].time``.  Conversion helpers
    into proper :class:`repro.analysis.timeseries.StepSeries` objects live
    in :mod:`repro.analysis.timeseries`.
    """

    def __init__(self) -> None:
        self.samples: List[UtilizationSample] = []
        self._ranks = count()
        self._arrivals: Dict[int, int] = {}
        self._running: Dict[int, Tuple[int, JobSpec, Tuple[int, ...], float]] = {}

    def on_event(self, event: SimEvent) -> None:
        kind = event.kind
        if kind == "applied":
            self._sample(event.time)
        elif kind in _ALLOCATING_KINDS:
            job_id = event.spec.job_id
            self._running[job_id] = (
                self._arrivals[job_id], event.spec, event.nodes, event.yield_value
            )
        elif kind in CLOSING_KINDS:
            job_id = event.spec.job_id
            self._running.pop(job_id, None)
            if kind == "complete" or kind == "cancel":
                del self._arrivals[job_id]
        elif kind == "submit":
            self._arrivals[event.spec.job_id] = next(self._ranks)
        elif kind == "run-start":
            self.samples = []
            self._ranks = count()
            self._arrivals = {}
            self._running = {}
        elif kind == "run-end":
            # The engine stops iterating as soon as the last job completes,
            # so the final completion is not followed by a decision; close
            # the trace with an explicit all-idle sample so that step series
            # span the full simulated interval.
            if self.samples and event.time > self.samples[-1].time:
                self.samples.append(UtilizationSample(event.time, 0, 0.0, 0.0, 0, 1.0))

    def _sample(self, time: float) -> None:
        busy = set()
        cpu = 0.0
        memory = 0.0
        min_yield = 1.0
        for _, spec, nodes, yield_value in sorted(self._running.values(), key=_ARRIVAL):
            busy.update(nodes)
            cpu += spec.num_tasks * spec.cpu_need * yield_value
            memory += spec.num_tasks * spec.mem_requirement
            min_yield = min(min_yield, yield_value)
        self.samples.append(
            UtilizationSample(
                time=time,
                busy_nodes=len(busy),
                cpu_allocated=cpu,
                memory_used=memory,
                running_jobs=len(self._running),
                min_yield=min_yield,
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

    def on_event(self, event: SimEvent) -> None:
        kind = event.kind
        if kind == "node-down":
            if event.node not in self._down:
                self._close_segment(event.time)
                self._down.add(event.node)
                self._up_cpu -= self._cluster.cpu_capacity(event.node)
        elif kind == "node-up":
            if event.node in self._down:
                self._close_segment(event.time)
                self._down.discard(event.node)
                self._up_cpu += self._cluster.cpu_capacity(event.node)
        elif kind == "run-start":
            self._cluster = event.cluster
            self.segments = []
            self._down = set()
            self.start_time = self.end_time = self._segment_start = event.time
            self._up_cpu = event.cluster.total_cpu_capacity()
        elif kind == "run-end":
            self._close_segment(event.time)
            self.end_time = event.time

    def _close_segment(self, time: float) -> None:
        if time > self._segment_start:
            self.segments.append((self._segment_start, time, self._up_cpu))
        self._segment_start = time

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
