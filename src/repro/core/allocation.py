"""Allocation data structures shared by the engine and the schedulers.

An :class:`AllocationDecision` is the complete output of one scheduler
invocation: for every job that should be *running* after the event it gives a
:class:`JobAllocation` (one node per task plus a yield).  Jobs omitted from
the decision are left pending or paused.  The engine compares consecutive
decisions to detect starts, preemptions, resumes, and migrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import AllocationError
from .cluster import Cluster, ClusterUsage
from .job import MINIMUM_YIELD, JobSpec

__all__ = ["JobAllocation", "AllocationDecision", "validate_decision"]


@dataclass(frozen=True)
class JobAllocation:
    """Placement and CPU share of a single running job.

    Parameters
    ----------
    nodes:
        Node index hosting each task (``len(nodes) == num_tasks``).  A node
        may appear several times if it hosts several tasks of the job.
    yield_value:
        Fraction of its CPU *need* the job receives, identical for all tasks
        (paper §II-B1), in ``[MINIMUM_YIELD, 1]``.
    """

    nodes: Tuple[int, ...]
    yield_value: float

    def __post_init__(self) -> None:
        if not self.nodes:
            raise AllocationError("an allocation must place at least one task")
        if not (0.0 < self.yield_value <= 1.0 + 1e-9):
            raise AllocationError(
                f"yield must be in (0, 1], got {self.yield_value}"
            )

    @staticmethod
    def create(nodes: Sequence[int], yield_value: float) -> "JobAllocation":
        """Build an allocation, clamping the yield into ``[MINIMUM_YIELD, 1]``."""
        clamped = min(1.0, max(MINIMUM_YIELD, yield_value))
        return JobAllocation(tuple(map(int, nodes)), clamped)

    def with_yield(self, yield_value: float) -> "JobAllocation":
        """Copy of this allocation with a different yield."""
        return JobAllocation.create(self.nodes, yield_value)


@dataclass
class AllocationDecision:
    """Complete scheduler output for one event.

    Attributes
    ----------
    running:
        Mapping from job id to its :class:`JobAllocation`.  Any active job not
        present is paused (if it was running) or remains queued.
    wakeups:
        Absolute times at which the scheduler wants to be re-invoked even if
        no submission or completion occurs (periodic ticks, backoff retries).
    """

    running: Dict[int, JobAllocation] = field(default_factory=dict)
    wakeups: List[float] = field(default_factory=list)

    def set(self, job_id: int, nodes: Sequence[int], yield_value: float) -> None:
        """Convenience setter for ``running[job_id]``."""
        self.running[job_id] = JobAllocation.create(nodes, yield_value)

    def request_wakeup(self, time: float) -> None:
        """Ask the engine for a scheduler invocation at absolute ``time``."""
        self.wakeups.append(float(time))

    def job_ids(self) -> Iterable[int]:
        return self.running.keys()


def validate_decision(
    decision: AllocationDecision,
    specs: Mapping[int, JobSpec],
    cluster: Cluster,
    *,
    usage: Optional[ClusterUsage] = None,
) -> ClusterUsage:
    """Check a decision against job arities and node capacities.

    Returns the :class:`ClusterUsage` implied by the decision.  Raises
    :class:`AllocationError` for structural problems (unknown job, wrong task
    count, out-of-range node) and :class:`InfeasibleAllocationError` when a
    node's memory or allocated CPU capacity is exceeded — the capacity
    errors name the offending job (``job {id}: node ...``) like the
    structural ones beside them.  ``specs`` may map to anything
    carrying ``num_tasks`` / ``cpu_need`` / ``mem_requirement`` (the engine
    passes its :class:`~repro.core.context.JobView` snapshots).
    """
    tally = usage if usage is not None else cluster.usage()
    entries: List[Tuple[Tuple[int, ...], float, float, float]] = []
    refusal: Optional[AllocationError] = None
    for job_id, alloc in decision.running.items():
        if job_id not in specs:
            refusal = AllocationError(f"decision references unknown job {job_id}")
            break
        spec = specs[job_id]
        if len(alloc.nodes) != spec.num_tasks:
            refusal = AllocationError(
                f"job {job_id}: allocation places {len(alloc.nodes)} tasks but "
                f"the job has {spec.num_tasks}"
            )
            break
        entries.append((alloc.nodes, spec.cpu_need, spec.mem_requirement, alloc.yield_value))
    # The jobs before a structural refusal are tallied first, so a capacity
    # error among them is the one raised.
    before = tally.task_vector()
    try:
        tally.add_jobs(entries)
    except AllocationError as exc:
        # The tally stores task by task, in order, and stops inside the job
        # it refuses: count the tasks it kept to find that job.
        stored = int((tally.task_vector() - before).sum())
        for owner, entry in zip(decision.running, entries):
            stored -= len(entry[0])
            if stored < 0:
                break
        raise type(exc)(f"job {owner}: {exc}") from exc
    if refusal is not None:
        raise refusal
    return tally
