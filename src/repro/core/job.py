"""Job specifications and dynamic job state.

A *job* in the DFRS model (paper §II-B1) consists of one or more identical
*tasks* that must progress at the same rate.  Each task is characterised by

* a **memory requirement** — fraction of a node's memory, fixed for the whole
  execution, which must never be oversubscribed on a node, and
* a **CPU need** — fraction of a node's CPU resource the task would use if it
  ran alone on the node (dedicated mode).

A task allocated a CPU fraction smaller than its need runs proportionally
slower.  The ratio ``allocated / need`` is the task's **yield**; because all
tasks of a job receive identical fractions the job has a single yield.

The *execution time* stored in the specification is the time the job takes on
a dedicated cluster (yield 1.0 throughout).  It is used by the simulation
engine to decide when a job completes and by the (clairvoyant) batch
schedulers as a perfect runtime estimate.  DFRS schedulers never read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from ..exceptions import WorkloadError

if TYPE_CHECKING:  # allocation.py imports this module
    from .allocation import JobAllocation

__all__ = ["JobState", "JobSpec", "Job", "MINIMUM_YIELD"]

#: Smallest yield a scheduler may assign to a running job.  The paper's
#: DYNMCB8-STRETCH-PER heuristically assigns 0.01 "so that no job consumes
#: memory without making progress"; we use the same floor everywhere.
MINIMUM_YIELD = 0.01


class JobState(enum.Enum):
    """Lifecycle of a job inside the simulation."""

    #: Submitted but never yet allocated any resources.
    PENDING = "pending"
    #: Currently holds an allocation and makes progress (or pays a penalty).
    RUNNING = "running"
    #: Previously ran, currently preempted (saved to storage).
    PAUSED = "paused"
    #: All of its work has been performed.
    COMPLETED = "completed"


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of a job as found in a workload trace.

    Parameters
    ----------
    job_id:
        Unique non-negative identifier within a workload.
    submit_time:
        Submission (release) time in seconds from the start of the trace.
    num_tasks:
        Number of parallel tasks; every task must be hosted by some node and a
        node may host several tasks of the same job provided memory permits.
    cpu_need:
        Per-task CPU need as a fraction of one node's CPU resource, in
        ``(0, 1]``.
    mem_requirement:
        Per-task memory requirement as a fraction of one node's memory, in
        ``(0, 1]``.
    execution_time:
        Job duration, in seconds, on a dedicated cluster (yield 1.0).
    """

    job_id: int
    submit_time: float
    num_tasks: int
    cpu_need: float
    mem_requirement: float
    execution_time: float

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise WorkloadError(f"job_id must be non-negative, got {self.job_id}")
        if not math.isfinite(self.submit_time) or self.submit_time < 0:
            raise WorkloadError(
                f"job {self.job_id}: submit_time must be finite and >= 0, "
                f"got {self.submit_time}"
            )
        if self.num_tasks < 1:
            raise WorkloadError(
                f"job {self.job_id}: num_tasks must be >= 1, got {self.num_tasks}"
            )
        if not (0.0 < self.cpu_need <= 1.0):
            raise WorkloadError(
                f"job {self.job_id}: cpu_need must be in (0, 1], got {self.cpu_need}"
            )
        if not (0.0 < self.mem_requirement <= 1.0):
            raise WorkloadError(
                f"job {self.job_id}: mem_requirement must be in (0, 1], "
                f"got {self.mem_requirement}"
            )
        if not math.isfinite(self.execution_time) or self.execution_time <= 0:
            raise WorkloadError(
                f"job {self.job_id}: execution_time must be finite and > 0, "
                f"got {self.execution_time}"
            )

    @property
    def total_cpu_need(self) -> float:
        """CPU need summed over all tasks (used by the greedy yield heuristic)."""
        return self.num_tasks * self.cpu_need

    @property
    def total_memory(self) -> float:
        """Memory requirement summed over all tasks, in node-memory units."""
        return self.num_tasks * self.mem_requirement

    def dedicated_work(self) -> float:
        """Total work of the job expressed in dedicated-time seconds."""
        return self.execution_time


@dataclass
class Job:
    """Dynamic state of a job inside the simulation engine.

    The engine is the only component that mutates instances of this class;
    schedulers observe jobs through read-only :class:`~repro.schedulers.base.
    JobView` snapshots.
    """

    spec: JobSpec
    state: JobState = JobState.PENDING
    #: Remaining work in dedicated-time seconds; drains at rate ``yield``.
    remaining_work: float = field(default=0.0)
    #: Integral of the yield since submission (paper §III-A).
    virtual_time: float = 0.0
    #: Wall-clock seconds of zero progress still owed due to rescheduling.
    penalty_remaining: float = 0.0
    #: Node index for each task while RUNNING, ``None`` otherwise.
    assignment: Optional[Tuple[int, ...]] = None
    #: Current yield while RUNNING (0.0 otherwise).
    current_yield: float = 0.0
    #: The applied allocation while RUNNING, ``None`` otherwise: equal to
    #: ``JobAllocation.create(assignment, current_yield)`` and kept until the
    #: next transition, so a context hands it out instead of rebuilding it.
    #: Engine bookkeeping derived from the two fields above: excluded from
    #: ``==``/repr.
    allocation: Optional["JobAllocation"] = field(default=None, compare=False, repr=False)
    #: Node assignment held the last time the job ran (for resume bookkeeping).
    last_assignment: Optional[Tuple[int, ...]] = None
    first_start_time: Optional[float] = None
    completion_time: Optional[float] = None
    preemption_count: int = 0
    migration_count: int = 0
    #: Execution-time-model multiplier on the dedicated work (1.0 = the
    #: trace is exact); set once at admission, before any progress is made.
    work_scale: float = 1.0
    #: Position in the engine's arrival order, stamped when the job enters
    #: the active table; sorting RUNNING-index walks by it restores that
    #: order.  Engine bookkeeping, not job state: excluded from ``==``/repr.
    arrival_rank: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.remaining_work == 0.0:
            self.remaining_work = self.scaled_work()

    def scaled_work(self) -> float:
        """Dedicated work under the execution-time model's multiplier."""
        work = self.spec.dedicated_work()
        if self.work_scale == 1.0:
            return work
        return work * self.work_scale

    # -- convenience accessors ------------------------------------------------
    @property
    def job_id(self) -> int:
        return self.spec.job_id

    @property
    def submit_time(self) -> float:
        return self.spec.submit_time

    def flow_time(self, now: float) -> float:
        """Time elapsed since submission (paper: "flow time")."""
        return max(0.0, now - self.spec.submit_time)

    def predicted_completion(self, now: float) -> float:
        """Completion instant under the current allocation, or ``+inf``.

        The job first pays any outstanding rescheduling penalty (zero
        progress) and then drains its remaining work at its current yield.
        """
        if self.state is JobState.COMPLETED:
            return self.completion_time if self.completion_time is not None else now
        if self.state is not JobState.RUNNING or self.current_yield <= 0.0:
            return math.inf
        completion = (
            now + self.penalty_remaining + self.remaining_work / self.current_yield
        )
        if completion <= now:
            # At large simulated times one float ulp can exceed the residual
            # work's drain time, making ``now + residual`` round back to
            # ``now``; the event loop would then spin at constant time without
            # ever completing the job.  Nudge the prediction one ulp into the
            # future so simulated time always advances (and the residual is
            # drained by that step).
            return math.nextafter(now, math.inf)
        return completion

    def advance(self, duration: float) -> None:
        """Advance the job by ``duration`` wall-clock seconds.

        Only RUNNING jobs make progress.  The outstanding penalty is drained
        first; the remainder of the interval accrues virtual time and reduces
        the remaining work at the current yield.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        if self.state is not JobState.RUNNING or duration == 0.0:
            return
        if self.penalty_remaining > 0.0:
            penalty_used = min(self.penalty_remaining, duration)
            self.penalty_remaining -= penalty_used
            duration -= penalty_used
        if duration <= 0.0:
            return
        self.virtual_time += self.current_yield * duration
        self.remaining_work -= self.current_yield * duration
        if self.remaining_work < 1e-9:
            self.remaining_work = 0.0

    def turnaround_time(self) -> float:
        """Turn-around (flow) time of a completed job."""
        if self.completion_time is None:
            raise ValueError(f"job {self.job_id} has not completed")
        return self.completion_time - self.spec.submit_time
