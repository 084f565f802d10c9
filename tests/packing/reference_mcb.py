"""The MCB packers as they stood before the run-grouped scan — test oracle.

Verbatim copies of the parent commit's ``mcb8_pack`` (with ``_first_fitting``,
the per-item all-list scan) and of ``mcb_family_pack``'s fork of the same
loop, minus the ``timed_phase`` decorators.  ``test_mcb_differential.py``
requires the live kernel to return the same :class:`PackingResult` on every
generated instance.  :func:`_fill` is the run-grouped fill as it stood before
it repeated bins; ``test_bin_repeat_differential.py`` feeds it and the live
fill the same record lists.  Steps are joined into per-job tuples by the
parent's assembler, kept in ``reference_baselines.py``.  Do not optimise or
tidy this file: being slow and obviously right is its job.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.packing.item import BIN_EPSILON, PackingItem, PackingResult
from repro.packing.mcb8 import BinCapacities, _check_capacities

from .reference_baselines import Bin, _assemble_steps, _collect_assignments, _make_bin


def _pop_largest_fitting_by(
    bin_: Bin,
    cpu_list: List[PackingItem],
    mem_list: List[PackingItem],
    sort_value,
) -> Optional[PackingItem]:
    """Remove and return the largest remaining item that fits ``bin_``.

    The heterogeneous seeding rule: where unit bins seed with the globally
    largest item (which fits any empty unit bin or no bin at all), a
    variable-capacity bin seeds with the largest item *it can host* — a bin
    too small for every remaining item is simply skipped.  "Largest" is
    measured by ``sort_value`` (the list ordering key), with CPU-heavy items
    winning ties like the unit-bin seed rule.
    """
    cpu_index = _first_fitting(bin_, cpu_list)
    mem_index = _first_fitting(bin_, mem_list)
    if cpu_index is None and mem_index is None:
        return None
    if mem_index is None:
        return cpu_list.pop(cpu_index)
    if cpu_index is None:
        return mem_list.pop(mem_index)
    if sort_value(cpu_list[cpu_index]) >= sort_value(mem_list[mem_index]):
        return cpu_list.pop(cpu_index)
    return mem_list.pop(mem_index)


def _pop_largest_fitting(
    bin_: Bin, cpu_list: List[PackingItem], mem_list: List[PackingItem]
) -> Optional[PackingItem]:
    """MCB8's heterogeneous seed: largest fitting item by max requirement."""
    return _pop_largest_fitting_by(
        bin_, cpu_list, mem_list, lambda item: item.max_requirement
    )


def _sorted_lists(
    items: Sequence[PackingItem],
) -> Tuple[List[PackingItem], List[PackingItem]]:
    """Split and sort items as required by MCB8 (step 1 and 2)."""
    cpu_heavy = [item for item in items if item.cpu_dominant]
    mem_heavy = [item for item in items if not item.cpu_dominant]
    # Stable sort by decreasing max requirement; ties broken by job/task id so
    # that packing is fully deterministic.
    key = lambda item: (-item.max_requirement, item.job_id, item.task_index)
    cpu_heavy.sort(key=key)
    mem_heavy.sort(key=key)
    return cpu_heavy, mem_heavy


def _first_fitting(bin_: Bin, items: List[PackingItem]) -> Optional[int]:
    """Index of the first item of ``items`` that fits in ``bin_``, or None."""
    for index, item in enumerate(items):
        if bin_.fits(item):
            return index
    return None


def mcb8_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    capacities: BinCapacities = None,
) -> PackingResult:
    """Pack ``items`` into at most ``num_bins`` bins using MCB8.

    With ``capacities=None`` (the default) every bin is the paper's 1.0 ×
    1.0 unit node and the algorithm is the original MCB8 exactly.  With a
    per-bin ``(cpu, memory)`` capacity list — heterogeneous platforms, down
    nodes as zero-capacity bins — bins are opened in index order and each
    fresh bin is seeded with the largest remaining item *it can host* (a
    bin too small for every remaining item is skipped); the balance-driven
    fill rule is unchanged.

    Returns a :class:`PackingResult`; on success ``assignments`` maps each job
    id to the tuple of bin (node) indices assigned to its tasks in task-index
    order.
    """
    if not items:
        return PackingResult(success=True, assignments={}, bins_used=0)
    if num_bins <= 0:
        return PackingResult.failure()
    _check_capacities(capacities, num_bins)

    cpu_list, mem_list = _sorted_lists(items)
    bins: List[Bin] = []
    bin_index = 0

    while cpu_list or mem_list:
        if bin_index >= num_bins:
            return PackingResult.failure()
        bin_ = _make_bin(bin_index, capacities)
        bin_index += 1

        if capacities is None:
            # Seed the fresh node with the largest remaining item overall.
            seed_list = _pick_seed_list(cpu_list, mem_list)
            if seed_list is None:
                return PackingResult.failure()
            seed = seed_list.pop(0)
            if not bin_.fits(seed):
                # An item that does not fit in an empty node can never be placed.
                return PackingResult.failure()
        else:
            seed = _pop_largest_fitting(bin_, cpu_list, mem_list)
            if seed is None:
                # Nothing fits this (possibly zero-capacity) bin; try the next.
                continue
        bins.append(bin_)
        bin_.add(seed)

        # Fill the node, balancing the two resource dimensions.
        while True:
            if bin_.memory_free > bin_.cpu_free:
                primary, secondary = mem_list, cpu_list
            else:
                primary, secondary = cpu_list, mem_list
            index = _first_fitting(bin_, primary)
            if index is not None:
                bin_.add(primary.pop(index))
                continue
            index = _first_fitting(bin_, secondary)
            if index is not None:
                bin_.add(secondary.pop(index))
                continue
            break

    assignments = _collect_assignments(bins)
    if assignments is None:
        return PackingResult.failure()
    return PackingResult(
        success=True, assignments=assignments, bins_used=len(bins)
    )


def _pick_seed_list(
    cpu_list: List[PackingItem], mem_list: List[PackingItem]
) -> Optional[List[PackingItem]]:
    """List whose head is the largest remaining item (paper: arbitrary pick)."""
    if not cpu_list and not mem_list:
        return None
    if not cpu_list:
        return mem_list
    if not mem_list:
        return cpu_list
    if cpu_list[0].max_requirement >= mem_list[0].max_requirement:
        return cpu_list
    return mem_list


#: Ordering keys of the MCB family.  Each maps an item to a sort value; items
#: are considered in non-increasing order of that value.
_ORDERINGS: Dict[str, Callable[[PackingItem], float]] = {
    # MCB8: order by the largest of the two requirements (the paper's choice).
    "max": lambda item: item.max_requirement,
    # MCB6-style: order by the sum of the requirements.
    "sum": lambda item: item.cpu + item.memory,
    # Single-dimension orderings (MCB2/MCB4-style degenerate variants).
    "cpu": lambda item: item.cpu,
    "memory": lambda item: item.memory,
    # Order by the imbalance between the two requirements.
    "difference": lambda item: abs(item.cpu - item.memory),
}


def mcb_family_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    ordering: str = "max",
    capacities: BinCapacities = None,
) -> PackingResult:
    """Multi-capacity balancing pack with a configurable item ordering.

    The algorithm is the same as :func:`repro.packing.mcb8.mcb8_pack` — split
    items into CPU-heavy and memory-heavy lists, fill one node at a time,
    always drawing from the list that goes against the node's current
    imbalance — but the two lists are sorted by the requested ``ordering``
    key instead of MCB8's largest-component key.
    """
    if ordering not in _ORDERINGS:
        raise ConfigurationError(
            f"unknown MCB ordering {ordering!r}; known orderings: "
            f"{', '.join(sorted(_ORDERINGS))}"
        )
    if not items:
        return PackingResult(success=True, assignments={}, bins_used=0)
    if num_bins <= 0:
        return PackingResult.failure()
    _check_capacities(capacities, num_bins)

    sort_value = _ORDERINGS[ordering]
    key = lambda item: (-sort_value(item), item.job_id, item.task_index)
    cpu_list = sorted((item for item in items if item.cpu_dominant), key=key)
    mem_list = sorted((item for item in items if not item.cpu_dominant), key=key)

    bins: List[Bin] = []
    bin_index = 0
    while cpu_list or mem_list:
        if bin_index >= num_bins:
            return PackingResult.failure()
        bin_ = _make_bin(bin_index, capacities)
        bin_index += 1

        if capacities is None:
            seed_list = _seed_list(cpu_list, mem_list, sort_value)
            seed = seed_list.pop(0)
            if not bin_.fits(seed):
                return PackingResult.failure()
        else:
            seed = _pop_largest_fitting_by(bin_, cpu_list, mem_list, sort_value)
            if seed is None:
                # Nothing fits this (possibly zero-capacity) bin; try the next.
                continue
        bins.append(bin_)
        bin_.add(seed)

        while True:
            if bin_.memory_free > bin_.cpu_free:
                primary, secondary = mem_list, cpu_list
            else:
                primary, secondary = cpu_list, mem_list
            index = _first_fitting_index(bin_, primary)
            if index is not None:
                bin_.add(primary.pop(index))
                continue
            index = _first_fitting_index(bin_, secondary)
            if index is not None:
                bin_.add(secondary.pop(index))
                continue
            break

    assignments = _collect_assignments(bins)
    if assignments is None:
        return PackingResult.failure()
    return PackingResult(success=True, assignments=assignments, bins_used=len(bins))


def _seed_list(
    cpu_list: List[PackingItem],
    mem_list: List[PackingItem],
    sort_value: Callable[[PackingItem], float],
) -> List[PackingItem]:
    """The list whose head has the larger ordering value."""
    if not cpu_list:
        return mem_list
    if not mem_list:
        return cpu_list
    if sort_value(cpu_list[0]) >= sort_value(mem_list[0]):
        return cpu_list
    return mem_list


def _first_fitting_index(bin_: Bin, items: List[PackingItem]) -> Optional[int]:
    for index, item in enumerate(items):
        if bin_.fits(item):
            return index
    return None


def _fill(
    lists: Tuple[List[list], List[list]], num_bins: int, capacities: BinCapacities
) -> PackingResult:
    """Fill bins in index order from the (CPU-dominant, memory-dominant) lists.

    The bin being filled is a few local floats, and ``cursors[which]`` is its
    scan position in ``lists[which]``: every run before it has been refused.
    A run's head is stored only straight after ``used + requirement <=
    capacity + epsilon`` held in both dimensions — :meth:`Bin.fits`' own two
    sums, so every comparison has the operands it would have there.

    The run-grouped fill as it stood before bins were repeated, verbatim but
    for one edit: a zero-capacity bin (a down node) is skipped before the
    seed search instead of granting its epsilon — the live rule.
    """
    cpu_runs, mem_runs = lists
    # One (job_id, first task_index, tasks, bin) per placing step.
    steps: List[Tuple[int, int, int, int]] = []
    bins_used = 0
    cpu_capacity = memory_capacity = 1.0
    bin_index = -1
    while cpu_runs or mem_runs:
        bin_index += 1
        if bin_index >= num_bins:
            return PackingResult.failure()
        if capacities is not None:
            cpu_capacity, memory_capacity = capacities[bin_index]
            if not (cpu_capacity > 0.0 or memory_capacity > 0.0):
                continue
        cpu_limit = cpu_capacity + BIN_EPSILON
        mem_limit = memory_capacity + BIN_EPSILON
        cpu_used = mem_used = 0.0
        cursors = [0, 0]

        # Seed the fresh node with the largest remaining item (CPU-heavy wins
        # ties): overall on unit bins, where it fits any empty node or none
        # ever; among those the node can host on variable-capacity bins.
        if capacities is not None:
            for which in (0, 1):
                cursors[which] = len(lists[which])
                for index, record in enumerate(lists[which]):
                    if (
                        cpu_used + record[0] <= cpu_limit
                        and mem_used + record[1] <= mem_limit
                    ):
                        cursors[which] = index
                        break
        has_cpu, has_mem = cursors[0] < len(cpu_runs), cursors[1] < len(mem_runs)
        if not (has_cpu or has_mem):
            # Nothing fits this (possibly zero-capacity) bin; try the next.
            continue
        if has_cpu and (
            not has_mem or cpu_runs[cursors[0]][5] >= mem_runs[cursors[1]][5]
        ):
            which = 0
        else:
            which = 1
        record = lists[which][cursors[which]]
        if not (
            cpu_used + record[0] <= cpu_limit and mem_used + record[1] <= mem_limit
        ):
            # Unit bins only (a sought seed fits): an item that does not fit
            # in an empty node can never be placed.
            return PackingResult.failure()
        bins_used += 1

        while True:
            # ``record`` heads the run at ``cursors[which]`` of ``lists[which]``
            # and has just passed the fit test: place its next task here.  The
            # scan below would pick the run again while it has tasks left, the
            # next task fits, and the balance rule favours its list or the
            # other list has nothing left for this bin (that cursor stays put
            # meanwhile): its next tasks are placed in the same step.
            cpu, memory, job_id, task_index, left = record[:5]
            alone = cursors[1 - which] >= len(lists[1 - which])
            placed = 0
            while True:
                cpu_used += cpu
                mem_used += memory
                placed += 1
                favour_memory = memory_capacity - mem_used > cpu_capacity - cpu_used
                if (
                    placed == left
                    or (favour_memory != which and not alone)
                    or not (cpu_used + cpu <= cpu_limit and mem_used + memory <= mem_limit)
                ):
                    break
            steps.append((job_id, task_index, placed, bin_index))
            if placed == left:
                del lists[which][cursors[which]]
            else:
                record[3] = task_index + placed
                record[4] = left - placed

            # Balance the two dimensions: next comes the first fitting item of
            # the list that goes against the node's imbalance, else of the
            # other list; the node is done when neither has one.
            for which in (1, 0) if favour_memory else (0, 1):
                runs = lists[which]
                index = cursors[which]
                count = len(runs)
                while index < count:
                    record = runs[index]
                    if (
                        cpu_used + record[0] <= cpu_limit
                        and mem_used + record[1] <= mem_limit
                    ):
                        break
                    index += 1
                cursors[which] = index
                if index < count:
                    break
            else:
                break

    assignments = _assemble_steps(steps)
    if assignments is None:
        return PackingResult.failure()
    return PackingResult(success=True, assignments=assignments, bins_used=bins_used)
