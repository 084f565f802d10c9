"""The item route of the decreasing-fit baselines as it stood before every
packer took job records — test oracle.

Verbatim copies of the parent commit's :class:`Bin`, the bin helpers of
``repro.packing.mcb8`` (``_make_bin``, ``_open_until_fits``,
``_count_used_bins``, ``_collect_assignments``), ``first_fit.py``'s packers
and ``worst_fit_decreasing_pack``, minus the ``timed_phase`` decorators.
:func:`_assemble_steps` is ``repro.packing.mcb8``'s as it stood before a
copied bin became one record: it reads plain steps only, so the oracles here
and in ``reference_mcb.py`` never run the live assembler.  Each
packer takes one :class:`PackingItem` per task.
``test_baseline_differential.py`` requires every registry packer to return the
same :class:`PackingResult` as its item-route oracle on every generated
instance, and ``reference_mcb.py`` fills its bins with :class:`Bin`.  Do not
optimise or tidy this file: being slow and obviously right is its job.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import AllocationError
from repro.packing.item import BIN_EPSILON, PackingItem, PackingResult
from repro.packing.mcb8 import BinCapacities, _check_capacities


def _assemble_steps(
    steps: Iterable[Tuple[int, int, int, int]],
) -> Optional[Dict[int, Tuple[int, ...]]]:
    """Per-job bin tuples in task order from ``(job_id, first task_index, count,
    bin)`` steps, None unless each job's indices run 0..n-1.  Steps out of task
    order (the item entry's) go task by task, the later winning a repeat.  The
    job entry's steps never give None: each run counts up from task 0."""
    per_job: Dict[int, List[int]] = {}
    for job_id, task_index, count, bin_index in steps:
        bins = per_job.setdefault(job_id, [])
        if task_index != len(bins):
            break
        bins += [bin_index] * count
    else:
        return {job_id: tuple(bins) for job_id, bins in per_job.items()}
    per_task: Dict[int, Dict[int, int]] = {}
    for job_id, task_index, count, bin_index in steps:
        mapping = per_task.setdefault(job_id, {})
        for offset in range(count):
            mapping[task_index + offset] = bin_index
    if any(len(mapping) != max(mapping) + 1 for mapping in per_task.values()):
        return None
    return {job_id: tuple(mapping[i] for i in range(len(mapping)))
            for job_id, mapping in per_task.items()}


class Bin:
    """One node being filled during packing.

    Bins default to the paper's 1.0 × 1.0 unit capacity; heterogeneous
    platforms (:mod:`repro.platform`) pass per-node ``(cpu, memory)``
    capacities instead, and a zero-capacity bin (a down node) fits nothing.
    """

    __slots__ = (
        "index",
        "cpu_used",
        "memory_used",
        "items",
        "epsilon",
        "cpu_capacity",
        "memory_capacity",
    )

    def __init__(
        self,
        index: int,
        epsilon: float = BIN_EPSILON,
        cpu_capacity: float = 1.0,
        memory_capacity: float = 1.0,
    ) -> None:
        self.index = index
        self.cpu_used = 0.0
        self.memory_used = 0.0
        self.items: List[PackingItem] = []
        self.epsilon = epsilon
        self.cpu_capacity = cpu_capacity
        self.memory_capacity = memory_capacity

    @property
    def cpu_free(self) -> float:
        return self.cpu_capacity - self.cpu_used

    @property
    def memory_free(self) -> float:
        return self.memory_capacity - self.memory_used

    def fits(self, item: PackingItem) -> bool:
        """True if the item fits in the remaining capacity of this bin.

        A zero-capacity bin (a down node) admits nothing, not even what the
        epsilon would let in.
        """
        return (
            (self.cpu_capacity > 0.0 or self.memory_capacity > 0.0)
            and self.cpu_used + item.cpu <= self.cpu_capacity + self.epsilon
            and self.memory_used + item.memory <= self.memory_capacity + self.epsilon
        )

    def add(self, item: PackingItem) -> None:
        """Place ``item`` in this bin (caller must have checked :meth:`fits`)."""
        if not self.fits(item):
            raise AllocationError(
                f"item ({item.job_id}, {item.task_index}) does not fit in bin "
                f"{self.index}"
            )
        self.cpu_used += item.cpu
        self.memory_used += item.memory
        self.items.append(item)


def _make_bin(index: int, capacities: BinCapacities) -> Bin:
    if capacities is None:
        return Bin(index)
    cpu_capacity, memory_capacity = capacities[index]
    return Bin(index, cpu_capacity=cpu_capacity, memory_capacity=memory_capacity)


def _open_until_fits(
    bins: List[Bin], item: PackingItem, num_bins: int, capacities: BinCapacities
) -> Optional[Bin]:
    """Open variable-capacity bins in index order until one hosts ``item``.

    Shared by the decreasing-fit packers: unlike unit bins (where a fresh
    bin either hosts the item or nothing ever will), a too-small bin is kept
    open — later, smaller items may still land in it.  Returns ``None`` when
    the bin budget runs out before a fitting bin appears.
    """
    while True:
        if len(bins) >= num_bins:
            return None
        fresh = _make_bin(len(bins), capacities)
        bins.append(fresh)
        if fresh.fits(item):
            return fresh


def _count_used_bins(bins: List[Bin]) -> int:
    """Bins that actually host items (capacity-skipped bins stay empty)."""
    return sum(1 for bin_ in bins if bin_.items)


def _collect_assignments(
    bins: Sequence[Bin],
) -> Optional[Dict[int, Tuple[int, ...]]]:
    """Rebuild per-job assignments from filled bins."""
    return _assemble_steps(
        [(item.job_id, item.task_index, 1, bin_.index) for bin_ in bins for item in bin_.items]
    )


def _decreasing(items: Sequence[PackingItem]) -> List[PackingItem]:
    return sorted(
        items, key=lambda item: (-item.max_requirement, item.job_id, item.task_index)
    )


def _pack(
    items: Sequence[PackingItem],
    num_bins: int,
    choose_bin: Callable[[List[Bin], PackingItem], Optional[Bin]],
    capacities: BinCapacities = None,
) -> PackingResult:
    """The decreasing-order loop of the first-, best- and worst-fit baselines:
    ``choose_bin`` picks an open bin the item fits, or ``None`` to open one."""
    if not items:
        return PackingResult(success=True, assignments={}, bins_used=0)
    if num_bins <= 0:
        return PackingResult.failure()
    _check_capacities(capacities, num_bins)
    bins: List[Bin] = []
    for item in _decreasing(items):
        target = choose_bin(bins, item)
        if target is None:
            if capacities is None:
                # Unit bins: one fresh bin either hosts the item or nothing
                # ever will.
                if len(bins) >= num_bins:
                    return PackingResult.failure()
                target = Bin(len(bins))
                bins.append(target)
                if not target.fits(item):
                    return PackingResult.failure()
            else:
                target = _open_until_fits(bins, item, num_bins, capacities)
                if target is None:
                    return PackingResult.failure()
        target.add(item)
    assignments = _collect_assignments(bins)
    if assignments is None:
        return PackingResult.failure()
    return PackingResult(
        success=True, assignments=assignments, bins_used=_count_used_bins(bins)
    )


def first_fit_decreasing_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    capacities: BinCapacities = None,
) -> PackingResult:
    """First-fit decreasing: place each item in the first bin where it fits."""

    def choose(bins: List[Bin], item: PackingItem) -> Optional[Bin]:
        for bin_ in bins:
            if bin_.fits(item):
                return bin_
        return None

    return _pack(items, num_bins, choose, capacities)


def best_fit_decreasing_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    capacities: BinCapacities = None,
) -> PackingResult:
    """Best-fit decreasing: place each item in the fullest bin where it fits.

    "Fullest" is measured by the remaining capacity in the item's dominant
    dimension, which is the conventional generalisation of best-fit to vector
    packing.
    """

    def choose(bins: List[Bin], item: PackingItem) -> Optional[Bin]:
        best: Optional[Bin] = None
        best_slack = float("inf")
        for bin_ in bins:
            if not bin_.fits(item):
                continue
            slack = (
                bin_.cpu_free - item.cpu
                if item.cpu_dominant
                else bin_.memory_free - item.memory
            )
            if slack < best_slack:
                best_slack = slack
                best = bin_
        return best

    return _pack(items, num_bins, choose, capacities)


def worst_fit_decreasing_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    capacities: BinCapacities = None,
) -> PackingResult:
    """Worst-fit decreasing: place each item in the *emptiest* open bin.

    "Emptiest" is measured by the remaining capacity in the item's dominant
    dimension.  This load-balancing flavour spreads items across nodes, which
    tends to use more bins than MCB8 but keeps per-node contention low; it is
    included as an ablation endpoint, not as a recommended policy.
    """

    def choose(bins: List[Bin], item: PackingItem) -> Optional[Bin]:
        best: Optional[Bin] = None
        best_slack = -1.0
        for bin_ in bins:
            if not bin_.fits(item):
                continue
            slack = bin_.cpu_free if item.cpu_dominant else bin_.memory_free
            if slack > best_slack:
                best_slack = slack
                best = bin_
        return best

    return _pack(items, num_bins, choose, capacities)
