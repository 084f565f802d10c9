"""MCB8 multi-capacity bin-packing heuristic (Leinberger et al., 1999).

This is the two-resource variant used by the paper (§III-B) and by the
earlier off-line work it builds on (Stillwell et al., "Resource allocation
using virtual clusters", CCGrid 2009).  The heuristic:

1. splits the items into two lists — items whose CPU requirement is at least
   their memory requirement, and items whose memory requirement is larger;
2. sorts each list by non-increasing order of the item's *largest*
   requirement;
3. fills nodes one at a time: the first item placed on a fresh node is the
   largest remaining item; subsequently the heuristic always tries to pick
   the first fitting item from the list that goes *against* the node's
   current imbalance (if free memory exceeds free CPU, pick a memory-heavy
   item, and vice versa), falling back to the other list, and moving to the
   next node when neither list has a fitting item;
4. succeeds when every item has been placed within the available nodes.

The goal of step 3 is to keep the consumption of both resources balanced on
every node so that neither dimension is exhausted while the other is still
underutilized.

"First fitting item" is found without walking the items.  Two invariants make
the shortcut exact, not approximate:

* *Identical neighbours.*  The fit test reads only an item's ``(cpu,
  memory)``, and the tasks of a job are identical items that sort next to
  each other.  Each sorted list is held as *runs* of such neighbours — one
  small record per run — and only a run's head is tested: if it does not fit,
  nothing in the run does; if it does, it is the run's first item in list
  order.
* *A bin only fills.*  Requirements are non-negative and float addition is
  monotone, so once ``used + requirement <= capacity + epsilon`` is false for
  a bin it stays false.  Each list keeps one cursor per bin and never rescans
  the runs the bin already refused.

A placed run's consecutive tasks go in one step while the scan would pick
the run again.  A bin that empties no run is copied, steps shifted, into the
next bins of equal capacity while every run it used keeps a task beyond the
copies: nothing the fill reads differs in a copy.  One fill then costs
O(distinct bins × runs) fit tests plus one float sum and fit test per item
placed in a distinct bin, and one record per stretch of copied bins, instead
of O(bins × items) *per placed item*; a record is expanded only when the
per-job tuples are assembled.
:func:`mcb8_pack` cuts items into runs; :func:`mcb8_pack_jobs`, the yield
searches' entry, and :func:`repro.packing.variants.mcb_family_pack` take one
per job and build no item.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..exceptions import AllocationError
from ..obs.telemetry import current_telemetry, timed_phase
from .item import BIN_EPSILON, PackingItem, PackingJob, PackingResult

__all__ = ["mcb8_pack", "mcb8_pack_jobs"]

#: Per-bin ``(cpu, memory)`` capacities for heterogeneous packing.
BinCapacities = Optional[Sequence[Tuple[float, float]]]


def _check_capacities(capacities: BinCapacities, num_bins: int) -> None:
    if capacities is not None and len(capacities) != num_bins:
        raise AllocationError(
            f"capacities must list one (cpu, memory) pair per bin "
            f"({num_bins}), got {len(capacities)}"
        )


def _task_memory(job: PackingJob, cpu: float) -> float:
    """The memory requirement of each of ``job``'s tasks when each needs
    ``cpu``, once ``job`` has a task and such a task is a valid item.

    :class:`PackingItem`'s checks, in its order, without building one; a
    value they refuse goes to ``PackingItem`` for its error."""
    if job.num_tasks < 1:
        raise AllocationError(f"job {job.job_id}: num_tasks must be >= 1")
    memory = job.mem_requirement
    if cpu >= 0 and memory >= 0 and memory <= 1.0 + 1e-9:  # NaN fails
        return memory
    return PackingItem(job.job_id, 0, cpu, memory).memory


def _runs(items: Iterable[PackingItem]) -> List[List[PackingItem]]:
    """Cut ``items`` into runs of consecutive identical tasks of one job.

    A run's items share ``job_id`` and ``(cpu, memory)`` and count
    ``task_index`` up by one — what ``PackingJob.items`` emits per job.
    """
    runs: List[List[PackingItem]] = []
    last = None
    for item in items:
        if (
            last is not None
            and item.job_id == last.job_id
            and item.task_index == last.task_index + 1
            and item.cpu == last.cpu
            and item.memory == last.memory
        ):
            runs[-1].append(item)
        else:
            runs.append([item])
        last = item
    return runs


def _pack(
    lists: Tuple[List[list], ...],
    num_items: int,
    num_bins: int,
    capacities: BinCapacities,
    whole_jobs: bool = False,
) -> PackingResult:
    """Fill both entries' sorted lists, and tell the telemetry sink what one pack did."""
    num_runs = len(lists[0]) + len(lists[1])
    repeated = 0
    if not num_items:
        result, num_runs = PackingResult(success=True, assignments={}, bins_used=0), 0
    elif num_bins <= 0:
        result, num_runs = PackingResult.failure(), 0
    else:
        _check_capacities(capacities, num_bins)
        result, repeated = _fill(lists, num_bins, capacities, whole_jobs)
    telemetry = current_telemetry()
    if telemetry is not None:
        telemetry.count("packing.packs")
        telemetry.count("packing.pack_failures", int(not result.success))
        telemetry.count("packing.items", num_items)
        telemetry.count("packing.runs", num_runs)
        telemetry.count("packing.bins_used", result.bins_used)
        telemetry.count("packing.bins_repeated", repeated)
    return result


def _fill(
    lists: Tuple[List[list], List[list]],
    num_bins: int,
    capacities: BinCapacities,
    whole_jobs: bool = False,
) -> Tuple[PackingResult, int]:
    """Fill bins in index order from the (CPU-dominant, memory-dominant) lists.

    The bin being filled is a few local floats, and ``cursors[which]`` is its
    scan position in ``lists[which]``: every run before it has been refused.
    A run's head is stored only straight after ``used + requirement <=
    capacity + epsilon`` held in both dimensions — the two sums of the
    item-by-item fit test, so every comparison has the operands it would have
    there.  A bin that empties no run is copied into the next bins while that
    is exact (:func:`_repeat_bin`).  Returns the result and how many bins were
    copies.

    With ``whole_jobs`` (the job entry: each run is a job's tasks from task
    0) a fill that places every run is a success before its per-job tuples
    exist, so the result builds them on its first read of ``assignments``.
    """
    cpu_runs, mem_runs = lists
    # One (job_id, first task_index, tasks, bin) per placing step, and one
    # _Copies record per stretch of copied bins.
    steps: List[Any] = []
    bins_used = repeated = 0
    cpu_capacity = memory_capacity = 1.0
    bin_index = -1
    while cpu_runs or mem_runs:
        bin_index += 1
        if bin_index >= num_bins:
            return PackingResult.failure(), repeated
        if capacities is not None:
            cpu_capacity, memory_capacity = capacities[bin_index]
            if not (cpu_capacity > 0.0 or memory_capacity > 0.0):
                # A zero-capacity bin (a down node) hosts nothing, not even
                # what its epsilon would let in.
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
            # Nothing fits this bin; try the next.
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
            return PackingResult.failure(), repeated
        bins_used += 1
        first_step = len(steps)
        # The record of each of this bin's steps, while no run has emptied.
        placed_runs: Optional[List[list]] = []

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
                placed_runs = None
            else:
                record[3] = task_index + placed
                record[4] = left - placed
                if placed_runs is not None:
                    placed_runs.append(record)

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

        if placed_runs is not None:
            copies = _repeat_bin(steps, first_step, placed_runs, bin_index, num_bins, capacities)
            bin_index += copies
            bins_used += copies
            repeated += copies

    if whole_jobs:
        assemble = partial(_assemble_steps, steps)
        return PackingResult(success=True, bins_used=bins_used, assemble=assemble), repeated
    assignments = _assemble_steps(steps)
    if assignments is None:
        return PackingResult.failure(), repeated
    return PackingResult(success=True, assignments=assignments, bins_used=bins_used), repeated


class _Copies(NamedTuple):
    """Bins ``bin_index + 1`` to ``bin_index + copies`` of a fill, each a copy
    of bin ``bin_index``: copy ``c`` takes every step ``(job_id, task_index,
    count, bin_index)`` of ``bin_steps`` as ``(job_id, task_index + c ×
    shift, count, bin_index + c)``, ``shifts`` holding each step's shift."""

    bin_steps: List[Tuple[int, int, int, int]]
    shifts: List[int]
    bin_index: int
    copies: int


def _repeat_bin(
    steps: List[Any],
    first_step: int,
    placed_runs: List[list],
    bin_index: int,
    num_bins: int,
    capacities: BinCapacities,
) -> int:
    """Copy the bin just filled into the next bins while the fill would repeat it.

    The bin emptied no run (``placed_runs[i]`` is the record of its step
    ``first_step + i``), so the lists are what it started from minus the
    tasks it took.  The seed choice, the fit tests, the balance rule and the
    ``alone`` flag read only the records' ``(cpu, memory, sort value)``, the
    list lengths and the bin's own float sums, so the next bin of equal
    capacity takes the same steps — while every run it uses has a task left
    beyond them.  Appends one :class:`_Copies` record for all the copies,
    moves the runs' cursors and returns the number of copies.
    """
    bin_steps = steps[first_step:]
    # A run's cursor minus the first task a step of it placed here is what
    # the bin took of the run at its first step, less at a later one: the
    # minimum over the steps is the minimum over the runs.
    copies = num_bins - 1 - bin_index
    for record, step in zip(placed_runs, bin_steps):
        fit = (record[4] - 1) // (record[3] - step[1])
        if fit < copies:
            copies = fit
    if capacities is not None:
        capacity = capacities[bin_index]
        stretch = 0
        while stretch < copies and capacities[bin_index + 1 + stretch] == capacity:
            stretch += 1
        copies = stretch
    if copies <= 0:
        return 0
    # Move each run by one bin's take, step by step: every step of a run
    # then reads the run's whole take as its shift.  Then by the rest.
    shifts = []
    for record, step in zip(placed_runs, bin_steps):
        shifts.append(record[3] - step[1])
        record[3] += step[2]
    for record, step in zip(placed_runs, bin_steps):
        record[3] += (copies - 1) * step[2]
        record[4] -= copies * step[2]
    steps.append(_Copies(bin_steps, shifts, bin_index, copies))
    return copies


def _written_out(steps: Sequence[Any]) -> List[Tuple[int, int, int, int]]:
    """``steps`` with each :class:`_Copies` record replaced by its copies'
    steps, copy by copy, each copy's steps in its bin's order."""
    flat: List[Tuple[int, int, int, int]] = []
    for step in steps:
        if type(step) is not _Copies:
            flat.append(step)
            continue
        bin_steps, shifts, bin_index, copies = step
        flat += [
            (job_id, task_index + copy * shift, count, bin_index + copy)
            for copy in range(1, copies + 1)
            for (job_id, task_index, count, _), shift in zip(bin_steps, shifts)
        ]
    return flat


def _extend_by_copies(per_job: Dict[int, List[int]], record: _Copies) -> bool:
    """Extend the per-job bin lists by ``record``'s copies; False where the
    in-order pass over :func:`_written_out`'s steps would stop.

    The bin's own steps have passed that pass, so each job's list ends with
    its take of the bin.  Copy ``c`` of a step starts ``c × shift`` tasks past
    the step, which is where its job's list ends exactly when the shift is
    the job's whole take of the bin.  Then each copy gives each job its take
    of tasks on the copy's bin.
    """
    bin_steps, shifts, bin_index, copies = record
    takes: Dict[int, int] = {}
    for job_id, _, count, _ in bin_steps:
        takes[job_id] = takes.get(job_id, 0) + count
    for (job_id, _, _, _), shift in zip(bin_steps, shifts):
        if shift != takes[job_id]:
            return False
    copied = list(range(bin_index + 1, bin_index + copies + 1))
    for job_id, take in takes.items():
        per_job[job_id] += sorted(copied * take)
    return True


def _assemble_steps(steps: Sequence[Any]) -> Optional[Dict[int, Tuple[int, ...]]]:
    """Per-job bin tuples in task order from ``(job_id, first task_index, count,
    bin)`` steps and :class:`_Copies` records, None unless each job's indices
    run 0..n-1.  Steps out of task order (the item entry's) go task by task,
    the later winning a repeat.  The job entry's steps never give None: each
    run counts up from task 0."""
    per_job: Dict[int, List[int]] = {}
    for step in steps:
        if type(step) is _Copies:
            if not _extend_by_copies(per_job, step):
                break
            continue
        job_id, task_index, count, bin_index = step
        bins = per_job.setdefault(job_id, [])
        if task_index != len(bins):
            break
        bins += [bin_index] * count
    else:
        return {job_id: tuple(bins) for job_id, bins in per_job.items()}
    per_task: Dict[int, Dict[int, int]] = {}
    for job_id, task_index, count, bin_index in _written_out(steps):
        mapping = per_task.setdefault(job_id, {})
        for offset in range(count):
            mapping[task_index + offset] = bin_index
    if any(len(mapping) != max(mapping) + 1 for mapping in per_task.values()):
        return None
    return {job_id: tuple(mapping[i] for i in range(len(mapping)))
            for job_id, mapping in per_task.items()}


@timed_phase("packing.mcb8")
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
    # Both lists in non-increasing largest requirement; ties broken by
    # job/task id so that packing is fully deterministic.
    key = lambda item: (-item.max_requirement, item.job_id, item.task_index)
    # Sorting whole runs of the input sorts the items whenever the result is
    # strictly increasing (always, for distinct task ids); otherwise sort item
    # by item and cut the runs afterwards.
    runs = _runs(items)
    runs.sort(key=lambda run: key(run[0]))
    if any(key(a[-1]) >= key(b[0]) for a, b in zip(runs, runs[1:])):
        runs = _runs(sorted(items, key=key))
    # The fill reads and writes one record per run and no item:
    # [cpu, memory, job_id, next task_index, items left, sort value].
    lists: Tuple[List[list], List[list]] = ([], [])
    for run in runs:
        job_id, task_index, cpu, memory = head = run[0]
        lists[0 if head.cpu_dominant else 1].append(
            [cpu, memory, job_id, task_index, len(run), head.max_requirement]
        )
    return _pack(lists, len(items), num_bins, capacities)


def _pack_jobs(
    jobs: Sequence[PackingJob],
    cpus: Sequence[float],
    num_bins: int,
    capacities: BinCapacities,
    sort_value: Callable[[float, float], float],
) -> PackingResult:
    """The MCB job entry, shared by MCB8 and the rest of the family: the items
    of ``jobs`` (distinct ids), each task of ``jobs[k]`` needing ``cpus[k]``,
    as one run record per job and no item.

    ``sort_value`` — a function of a task's ``(cpu, memory)`` — orders the
    two lists (non-increasing, ties by job id) and ranks the seed candidates.
    """
    lists: Tuple[List[list], List[list]] = ([], [])
    num_items = 0
    for job, cpu in zip(jobs, cpus):
        memory = _task_memory(job, cpu)
        record = [cpu, memory, job.job_id, 0, job.num_tasks, sort_value(cpu, memory)]
        lists[0 if cpu >= memory else 1].append(record)
        num_items += job.num_tasks
    for runs in lists:
        runs.sort(key=lambda record: (-record[5], record[2]))
    return _pack(lists, num_items, num_bins, capacities, whole_jobs=True)


@timed_phase("packing.mcb8")
def mcb8_pack_jobs(
    jobs: Sequence[PackingJob], cpus: Sequence[float], num_bins: int, capacities: BinCapacities = None
) -> PackingResult:
    """:func:`mcb8_pack` of the items of ``jobs`` (distinct ids), each task of
    ``jobs[k]`` needing ``cpus[k]``: one run record per job, and no item."""
    return _pack_jobs(jobs, cpus, num_bins, capacities, max)
