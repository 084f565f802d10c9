"""First-, best- and worst-fit decreasing vector-packing baselines.

These are not part of the paper's algorithm suite; they exist to ablate the
MCB8 balance heuristic (the ``packing-ablation`` study).  Each treats the two
resource dimensions independently of each other when choosing a bin, which is
exactly the behaviour MCB8 was designed to improve upon.

They take the job records of :func:`repro.packing.mcb8.mcb8_pack_jobs`: jobs
go in non-increasing order of their larger requirement (ties by job id), each
job's tasks in task order.  A task that no open bin hosts opens bins in index
order until one does; a too-small bin stays open, because later, smaller
tasks may still land in it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.telemetry import timed_phase
from .item import BIN_EPSILON, PackingJob, PackingResult
from .mcb8 import BinCapacities, _check_capacities, _task_memory

__all__ = [
    "first_fit_decreasing_pack",
    "best_fit_decreasing_pack",
    "worst_fit_decreasing_pack",
]

#: An open bin: ``[cpu used, memory used, cpu capacity, memory capacity]``.
_OpenBin = List[float]

#: Picks the index of an open bin that hosts a ``(cpu, memory)`` task, or
#: None to open one.
_Chooser = Callable[[List[_OpenBin], float, float], Optional[int]]


def _fits(bin_: _OpenBin, cpu: float, memory: float) -> bool:
    """True if the task fits in the remaining capacity of ``bin_``.

    A zero-capacity bin (a down node) admits nothing, not even what the
    epsilon would let in.
    """
    cpu_used, memory_used, cpu_capacity, memory_capacity = bin_
    return (
        (cpu_capacity > 0.0 or memory_capacity > 0.0)
        and cpu_used + cpu <= cpu_capacity + BIN_EPSILON
        and memory_used + memory <= memory_capacity + BIN_EPSILON
    )


def _pack(
    jobs: Sequence[PackingJob],
    cpus: Sequence[float],
    num_bins: int,
    capacities: BinCapacities,
    choose: _Chooser,
) -> PackingResult:
    """The decreasing-order loop of the three baselines: ``choose`` picks an
    open bin the task fits, or ``None`` to open one."""
    records: List[Tuple[float, int, int, float, float]] = []
    for job, cpu in zip(jobs, cpus):
        memory = _task_memory(job, cpu)
        records.append((-max(cpu, memory), job.job_id, job.num_tasks, cpu, memory))
    if not records:
        return PackingResult(success=True, assignments={}, bins_used=0)
    if num_bins <= 0:
        return PackingResult.failure()
    _check_capacities(capacities, num_bins)
    records.sort(key=lambda record: record[:2])
    bins: List[_OpenBin] = []
    assignments: Dict[int, Tuple[int, ...]] = {}
    for _, job_id, num_tasks, cpu, memory in records:
        placed: List[int] = []
        for _ in range(num_tasks):
            index = choose(bins, cpu, memory)
            while index is None:
                if len(bins) >= num_bins:
                    return PackingResult.failure()
                cpu_capacity, memory_capacity = (
                    (1.0, 1.0) if capacities is None else capacities[len(bins)]
                )
                bins.append([0.0, 0.0, cpu_capacity, memory_capacity])
                if _fits(bins[-1], cpu, memory):
                    index = len(bins) - 1
            bin_ = bins[index]
            bin_[0] += cpu
            bin_[1] += memory
            placed.append(index)
        assignments[job_id] = tuple(placed)
    bins_used = len({index for placed in assignments.values() for index in placed})
    return PackingResult(success=True, assignments=assignments, bins_used=bins_used)


def _first_fit(bins: List[_OpenBin], cpu: float, memory: float) -> Optional[int]:
    for index, bin_ in enumerate(bins):
        if _fits(bin_, cpu, memory):
            return index
    return None


def _best_fit(bins: List[_OpenBin], cpu: float, memory: float) -> Optional[int]:
    best: Optional[int] = None
    best_slack = float("inf")
    for index, bin_ in enumerate(bins):
        if not _fits(bin_, cpu, memory):
            continue
        slack = bin_[2] - bin_[0] - cpu if cpu >= memory else bin_[3] - bin_[1] - memory
        if slack < best_slack:
            best_slack = slack
            best = index
    return best


def _worst_fit(bins: List[_OpenBin], cpu: float, memory: float) -> Optional[int]:
    best: Optional[int] = None
    best_slack = -1.0
    for index, bin_ in enumerate(bins):
        if not _fits(bin_, cpu, memory):
            continue
        slack = bin_[2] - bin_[0] if cpu >= memory else bin_[3] - bin_[1]
        if slack > best_slack:
            best_slack = slack
            best = index
    return best


@timed_phase("packing.first_fit_decreasing")
def first_fit_decreasing_pack(
    jobs: Sequence[PackingJob],
    cpus: Sequence[float],
    num_bins: int,
    capacities: BinCapacities = None,
) -> PackingResult:
    """First-fit decreasing: place each task in the first bin where it fits."""
    return _pack(jobs, cpus, num_bins, capacities, _first_fit)


@timed_phase("packing.best_fit_decreasing")
def best_fit_decreasing_pack(
    jobs: Sequence[PackingJob],
    cpus: Sequence[float],
    num_bins: int,
    capacities: BinCapacities = None,
) -> PackingResult:
    """Best-fit decreasing: place each task in the fullest bin where it fits.

    "Fullest" is measured by the remaining capacity in the task's dominant
    dimension, less the task's requirement there, which is the conventional
    generalisation of best-fit to vector packing.
    """
    return _pack(jobs, cpus, num_bins, capacities, _best_fit)


@timed_phase("packing.worst_fit_decreasing")
def worst_fit_decreasing_pack(
    jobs: Sequence[PackingJob],
    cpus: Sequence[float],
    num_bins: int,
    capacities: BinCapacities = None,
) -> PackingResult:
    """Worst-fit decreasing: place each task in the *emptiest* open bin.

    "Emptiest" is measured by the remaining capacity in the task's dominant
    dimension.  This load-balancing flavour spreads tasks across nodes, which
    tends to use more bins than MCB8 but keeps per-node contention low; it is
    included as an ablation endpoint, not as a recommended policy.
    """
    return _pack(jobs, cpus, num_bins, capacities, _worst_fit)
