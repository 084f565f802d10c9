"""Read-only views of the simulation state handed to schedulers.

Schedulers never touch :class:`~repro.core.job.Job` objects directly: at each
event the engine hands them one :class:`JobView` per active job, wrapped in a
:class:`SchedulingContext`.  This keeps policies pure (they cannot corrupt
engine state) and lets us enforce the paper's clairvoyance rules: the
``runtime_estimate`` and ``remaining_runtime_estimate`` fields are populated
only for schedulers that declare ``requires_runtime_estimates`` (the batch
baselines, §IV-B); DFRS schedulers receive ``None`` there.

Views are immutable tuples and carry no field that changes with time alone:
a job's flow time is derived from the context
(:meth:`SchedulingContext.flow_time`).  So the engine builds a waiting
(pending or paused) job's view when the job arrives or changes state and
hands the same view over at every event until its next transition; only
RUNNING jobs, whose virtual time moves, get a fresh view per event.  Every context gets its own ``jobs`` dict and
partition lists, so a context a scheduler or observer keeps reads the same
after the run has moved on.  A context's running/paused/pending partition is
filled by whoever builds the views when it already has each state in hand —
the engine keeps its waiting views in per-state tables — and otherwise
(contexts built by hand: tests, replays) computed once, on first use, and
cached on the context.  Either way ``jobs`` is not meant to be edited after a
partition accessor has been called.  The engine also hands over each
RUNNING job's applied :class:`JobAllocation`, so
:meth:`SchedulingContext.current_allocations` returns those objects instead
of rebuilding one per running job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .allocation import JobAllocation
from .cluster import Cluster, ClusterUsage
from .job import JobState

__all__ = ["JobView", "SchedulingContext"]


class JobView(NamedTuple):
    """Immutable snapshot of one active job as seen by a scheduler.

    Tuple-backed (the engine builds one per RUNNING job per event and one
    per transition, so construction cost is the engine's per-event tax);
    fields are read by name and keyword construction works as for a
    dataclass.  The flow time is not a field: it changes at every event, so
    it comes from :meth:`SchedulingContext.flow_time`.
    """

    job_id: int
    num_tasks: int
    cpu_need: float
    mem_requirement: float
    submit_time: float
    state: JobState
    virtual_time: float
    #: Current placement (one node per task) if the job is RUNNING.
    assignment: Optional[Tuple[int, ...]]
    #: Current yield if the job is RUNNING, 0.0 otherwise.
    current_yield: float
    #: Placement the job had the last time it ran (useful when resuming).
    last_assignment: Optional[Tuple[int, ...]]
    #: Perfect runtime estimate — only for clairvoyant (batch) schedulers.
    runtime_estimate: Optional[float] = None
    #: Perfect remaining-runtime estimate — only for clairvoyant schedulers.
    remaining_runtime_estimate: Optional[float] = None

    @property
    def total_cpu_need(self) -> float:
        """CPU need summed over all tasks."""
        return self.num_tasks * self.cpu_need

    @property
    def total_memory(self) -> float:
        """Memory requirement summed over all tasks."""
        return self.num_tasks * self.mem_requirement

    @property
    def is_running(self) -> bool:
        return self.state is JobState.RUNNING

    @property
    def is_paused(self) -> bool:
        return self.state is JobState.PAUSED

    @property
    def is_pending(self) -> bool:
        return self.state is JobState.PENDING


@dataclass
class SchedulingContext:
    """Everything a scheduler may look at when making a decision."""

    #: Current simulation time (seconds).
    time: float
    #: Cluster description (node count, cores, memory size).
    cluster: Cluster
    #: Views of every active (pending, running, or paused) job, by id.
    jobs: Dict[int, JobView]
    #: Ids of jobs submitted at this event, in submission order.
    submitted: List[int] = field(default_factory=list)
    #: Ids of jobs that completed at this event.
    completed: List[int] = field(default_factory=list)
    #: True when the event includes a scheduler-requested wake-up.
    is_wakeup: bool = False
    #: Nodes currently unavailable (down under a platform failure trace).
    #: Schedulers must not place tasks on them; the engine rejects decisions
    #: that do.  Empty on static platforms.
    down_nodes: FrozenSet[int] = frozenset()
    #: Ids of jobs evicted at this event because their node failed (killed
    #: and requeued, or checkpoint-paused, per the platform failure policy).
    evicted: List[int] = field(default_factory=list)
    #: True when the engine asks periodic schedulers to repack *now* instead
    #: of waiting for their next tick — set on ``NODE_DOWN`` events when
    #: ``SimulationConfig(repack_on_failure=True)``.  Event-driven
    #: schedulers (which repack at every event anyway) may ignore it.
    repack_requested: bool = False
    #: ``(running, paused, pending)`` views in ``jobs`` order; filled by the
    #: engine's snapshot pass, else by the first partition accessor called.
    _partition: Optional[Tuple[List[JobView], List[JobView], List[JobView]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The RUNNING jobs' applied allocations in ``jobs`` order; filled by the
    #: engine's snapshot pass, else rebuilt by every ``current_allocations``.
    _allocations: Optional[Dict[int, JobAllocation]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _by_state(self) -> Tuple[List[JobView], List[JobView], List[JobView]]:
        """Split ``jobs`` by state in one pass (cached)."""
        partition = self._partition
        if partition is None:
            running: List[JobView] = []
            paused: List[JobView] = []
            pending: List[JobView] = []
            for view in self.jobs.values():
                state = view.state
                if state is JobState.RUNNING:
                    running.append(view)
                elif state is JobState.PENDING:
                    pending.append(view)
                elif state is JobState.PAUSED:
                    paused.append(view)
            partition = self._partition = (running, paused, pending)
        return partition

    def running_jobs(self) -> List[JobView]:
        """Views of currently running jobs (a fresh list, in ``jobs`` order)."""
        return list(self._by_state()[0])

    def paused_jobs(self) -> List[JobView]:
        """Views of currently paused jobs (a fresh list, in ``jobs`` order)."""
        return list(self._by_state()[1])

    def pending_jobs(self) -> List[JobView]:
        """Views of jobs that have never been started (a fresh list, in
        ``jobs`` order)."""
        return list(self._by_state()[2])

    def flow_time(self, view: JobView) -> float:
        """Time since ``view``'s submission, clamped at +0.0 like
        :meth:`Job.flow_time <repro.core.job.Job.flow_time>` (``-0.0`` and
        NaN included)."""
        flow = self.time - view.submit_time
        return flow if flow > 0.0 else 0.0

    def packing_capacities(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        """Per-node ``(cpu, memory)`` bin capacities for vector packing.

        ``None`` on the fast path — a homogeneous cluster with every node up
        — which tells the packers to use their original unit-bin code.  Down
        nodes get zero capacity, so no packing ever lands on them.
        """
        if not self.down_nodes and not self.cluster.is_heterogeneous:
            return None
        return tuple(
            (0.0, 0.0)
            if node in self.down_nodes
            else (self.cluster.cpu_capacity(node), self.cluster.mem_capacity(node))
            for node in range(self.cluster.num_nodes)
        )

    def usage_from_running(self) -> ClusterUsage:
        """Cluster usage implied by the currently running jobs."""
        usage = self.cluster.usage(self.down_nodes)
        usage.add_jobs(
            (
                (view.assignment, view.cpu_need, view.mem_requirement, view.current_yield)
                for view in self._by_state()[0]
            ),
            check=False,
        )
        return usage

    def current_allocations(self) -> Dict[int, JobAllocation]:
        """Current running allocations as :class:`JobAllocation` objects, in
        ``jobs`` order, in a fresh dict.

        A context the engine built hands out the live objects it applied
        (each equal to ``JobAllocation.create(view.assignment,
        view.current_yield)``, and immutable); one built by hand rebuilds
        them from its running views.
        """
        if self._allocations is not None:
            return dict(self._allocations)
        allocations: Dict[int, JobAllocation] = {}
        for view in self.running_jobs():
            assert view.assignment is not None
            allocations[view.job_id] = JobAllocation.create(
                view.assignment, view.current_yield
            )
        return allocations
