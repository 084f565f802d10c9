"""Items and results of two-dimensional (CPU × memory) vector packing.

The DFRS allocation problem reduces to vector packing once a target yield is
fixed (paper §III-B): every task becomes an item with a *CPU requirement*
(CPU need × yield) and a *memory requirement*, and every node is a bin with
capacity 1.0 in both dimensions.  Tasks of the same job are distinct items
that may land on the same or different bins.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..exceptions import AllocationError

__all__ = ["PackingItem", "PackingResult", "job_items", "PackingJob"]

#: What a bin accepts beyond its nominal capacity, per dimension: a task fits
#: when ``used + requirement <= capacity + BIN_EPSILON`` in both.
#: :mod:`repro.packing.bounds` pads its proofs by the same amount per bin.
BIN_EPSILON = 1e-9


class _ItemFields(NamedTuple):
    job_id: int
    task_index: int
    cpu: float
    memory: float


class PackingItem(_ItemFields):
    """One task to be placed on a node.

    ``job_id``/``task_index`` identify the task; ``cpu`` and ``memory`` are
    the resource requirements as fractions of one node.  Tuple-backed (a
    yield search builds one per task per probe); construction validates, and
    :func:`job_items` validates one of a job's identical tasks.
    """

    __slots__ = ()

    def __new__(
        cls, job_id: int, task_index: int, cpu: float, memory: float
    ) -> "PackingItem":
        if not (cpu >= 0 and memory >= 0):  # NaN fails both
            raise AllocationError(
                f"item ({job_id}, {task_index}): requirements must be >= 0"
            )
        if memory > 1.0 + 1e-9:
            raise AllocationError(
                f"item ({job_id}, {task_index}): memory requirement "
                f"{memory} exceeds a full node"
            )
        return tuple.__new__(cls, (job_id, task_index, cpu, memory))

    @property
    def max_requirement(self) -> float:
        """Larger of the two requirements — MCB8's sort key."""
        return max(self.cpu, self.memory)

    @property
    def cpu_dominant(self) -> bool:
        """True when the CPU requirement is at least the memory requirement."""
        return self.cpu >= self.memory


class PackingResult:
    """Outcome of a packing attempt.

    ``assignments`` maps each job id to the node index assigned to each of
    its tasks, in task order; it is only meaningful when ``success`` is True.
    ``bins_used`` counts the bins that received at least one item.

    A packer that knows it succeeded before it has the mapping passes
    ``assemble`` instead: a zero-argument callable that builds the mapping on
    the first read of ``assignments``.  A yield search reads only the probe
    it returns, so the probes it discards never build one.
    """

    __slots__ = ("success", "bins_used", "_assignments", "_assemble")

    def __init__(
        self,
        success: bool,
        assignments: Optional[Dict[int, Tuple[int, ...]]] = None,
        bins_used: int = 0,
        *,
        assemble: Optional[Callable[[], Dict[int, Tuple[int, ...]]]] = None,
    ) -> None:
        self.success = success
        self.bins_used = bins_used
        self._assignments = {} if assignments is None else assignments
        self._assemble = assemble

    @property
    def assignments(self) -> Dict[int, Tuple[int, ...]]:
        if self._assemble is not None:
            self._assignments, self._assemble = self._assemble(), None
        return self._assignments

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackingResult):
            return NotImplemented
        return (self.success, self.assignments, self.bins_used) == (
            other.success, other.assignments, other.bins_used
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"PackingResult(success={self.success!r}, "
            f"assignments={self.assignments!r}, bins_used={self.bins_used!r})"
        )

    @staticmethod
    def failure() -> "PackingResult":
        return PackingResult(success=False)


def job_items(
    job_id: int, num_tasks: int, cpu: float, memory: float
) -> List[PackingItem]:
    """Build the ``num_tasks`` identical items of one job."""
    if num_tasks < 1:
        raise AllocationError(f"job {job_id}: num_tasks must be >= 1")
    # The tasks differ only in their index: validate one, stamp the rest.
    stamp = tuple.__new__
    return [PackingItem(job_id, 0, cpu, memory)] + [
        stamp(PackingItem, (job_id, i, cpu, memory)) for i in range(1, num_tasks)
    ]


class PackingJob(NamedTuple):
    """Job description used by the binary searches (no execution time!).

    Tuple-backed like :class:`PackingItem` (a DYNMCB8 repack builds one per
    candidate job); fields are read by name, and keyword construction works
    as for a dataclass.
    """

    job_id: int
    num_tasks: int
    cpu_need: float
    mem_requirement: float
    #: Time since submission; only used by the stretch-oriented search.
    flow_time: float = 0.0
    #: Accumulated virtual time; only used by the stretch-oriented search.
    virtual_time: float = 0.0

    def items(self, yield_value: float) -> List[PackingItem]:
        """Items of this job when each task requires ``cpu_need × yield``."""
        return job_items(
            self.job_id, self.num_tasks, self.cpu_requirement(yield_value), self.mem_requirement
        )

    def cpu_requirement(self, yield_value: float) -> float:
        """Each task's CPU need × ``yield_value``, capped at 1.0 (a NaN stays NaN)."""
        cpu = self.cpu_need * yield_value
        return 1.0 if cpu > 1.0 else cpu
