"""Analytic bounds and feasibility checks for the DFRS packing problem.

The binary search of :func:`repro.packing.yield_search.maximize_min_yield`
finds the best yield a given *heuristic* can realise.  The bounds in this
module are heuristic-independent necessary conditions; they are used

* in tests, to verify that no packer ever claims a yield above what the
  aggregate CPU capacity allows;
* in the packing ablation experiments, to report how close each heuristic
  gets to the capacity bound;
* by schedulers and the yield searches, as a cheap early-exit test before
  running a full search (or one of its packs).

All bounds treat the cluster as ``num_nodes`` bins of capacity 1.0 × 1.0 and
a job as ``num_tasks`` identical (CPU-need, memory) items, exactly as in
§III-B of the paper.  On heterogeneous platforms pass the per-node
``capacities`` (the :meth:`repro.core.cluster.Cluster.node_capacities`
pairs): the aggregate bounds then sum real capacities instead of counting
unit nodes.

The packers' bins accept ``capacity + BIN_EPSILON`` against a *rounded*
running sum, so every *infeasibility* test here grants one epsilon per bin
and a rounding allowance: an instance some packer can pack is never called
infeasible.  (:func:`cpu_capacity_yield_bound` is an unpadded ratio for
reporting, not such a test.)
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from .item import BIN_EPSILON, PackingItem, PackingJob

__all__ = [
    "total_cpu_need",
    "total_memory_requirement",
    "cpu_capacity_yield_bound",
    "memory_lower_bound_bins",
    "memory_feasible",
    "memory_feasible_prefixes",
    "infeasibility_reasons",
    "cpu_volume_exceeded",
]


def _rounding_allowance(operations: int) -> float:
    """Factor covering ``operations`` float roundings on either side of a test.

    A bin admits items against its *rounded* running sum and the totals here
    are rounded sums too; each rounding moves a non-negative sum by at most
    one part in 2**53, so scaling a limit by this factor keeps "exceeds the
    limit" a proof whatever the order of additions.
    """
    return 1.0 + (operations + 4) * 2.0**-51


def _volume_exceeded(
    volume: float, tasks: int, total_capacity: float, num_nodes: int
) -> bool:
    """Proof that ``tasks`` items summing to ``volume`` overfill the bins."""
    # Each bin accepts its capacity plus epsilon, so the cluster accepts one
    # epsilon per node — not one overall.
    accepted = total_capacity + num_nodes * BIN_EPSILON
    return volume > accepted * _rounding_allowance(tasks + num_nodes)


def total_cpu_need(jobs: Sequence[PackingJob]) -> float:
    """Sum of CPU needs over all tasks of all jobs (in node units)."""
    return sum(job.num_tasks * job.cpu_need for job in jobs)


def total_memory_requirement(jobs: Sequence[PackingJob]) -> float:
    """Sum of memory requirements over all tasks of all jobs (in node units)."""
    return sum(job.num_tasks * job.mem_requirement for job in jobs)


def cpu_capacity_yield_bound(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    *,
    capacities: Optional[Sequence[Tuple[float, float]]] = None,
) -> float:
    """Upper bound on the achievable minimum yield when all yields are equal.

    If every job receives yield ``Y`` then the total allocated CPU is
    ``Y × Σ (tasks × need)``, which cannot exceed the cluster's aggregate
    CPU capacity (``num_nodes`` units when homogeneous, the sum of per-node
    CPU capacities otherwise).  Hence ``Y ≤ capacity / Σ need`` (and never
    above 1).  An empty job set has a bound of 1.0 by convention.

    Not a proof: the ratio ignores the bin tolerance and rounding, so a packer
    may land a hair above it.  To *refuse* a pack use :func:`cpu_volume_exceeded`.
    """
    if num_nodes < 1:
        raise ReproError(f"num_nodes must be >= 1, got {num_nodes}")
    total_capacity = (
        float(num_nodes)
        if capacities is None
        else sum(cpu for cpu, _ in capacities)
    )
    demand = total_cpu_need(jobs)
    if demand <= 0.0:
        return 1.0
    return min(1.0, total_capacity / demand)


def memory_lower_bound_bins(items: Sequence[PackingItem]) -> int:
    """Lower bound on the number of bins any packing of ``items`` must use.

    Combines the volume bound (total memory rounded up) with the pairing
    bound (two items each requiring more than half a node can never share).
    Only the memory dimension is considered because memory requirements are
    yield-independent; the CPU dimension shrinks as the yield decreases.
    """
    if not items:
        return 0
    # n bins hold at most n × (1 + epsilon), up to rounding; dividing by the
    # padded per-bin limit can only lower the bound, never overshoot it.
    per_bin = (1.0 + BIN_EPSILON) * _rounding_allowance(len(items))
    volume_bound = int(math.ceil(sum(item.memory for item in items) / per_bin))
    pairing_bound = sum(1 for item in items if item.memory > 0.5 + 1e-9)
    return max(1, volume_bound, pairing_bound)


def memory_feasible(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    *,
    capacities: Optional[Sequence[Tuple[float, float]]] = None,
) -> bool:
    """Quick necessary test: can the memory footprint possibly fit?

    This only checks necessary conditions (per-task fit, volume bound, and
    pairing bound); a ``True`` answer does not guarantee that a packing
    exists, but a ``False`` answer proves that none does, whatever the yield.
    """
    return not infeasibility_reasons(jobs, num_nodes, capacities=capacities)


def memory_feasible_prefixes(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    *,
    capacities: Optional[Sequence[Tuple[float, float]]] = None,
) -> List[bool]:
    """``memory_feasible(jobs[:k])`` for every ``k`` from 0 to ``len(jobs)``, in one pass.

    The running memory volume and task count, the first oversized job, and
    the big tasks' count and smallest requirement are all prefix sums or
    prefix extrema; the pairing slot count is one term per distinct node
    capacity.  A running total is ``sum()``'s left-to-right order, so the
    verdicts equal :func:`memory_feasible`'s wherever ``sum()`` is not
    compensated (CPython <= 3.11); elsewhere a volume verdict can differ only
    within the rounding allowance, where every ``False`` is still a proof.
    """
    if num_nodes < 1:
        raise ReproError(f"num_nodes must be >= 1, got {num_nodes}")
    if capacities is None:
        # Unit bins: what the capacity list would give, without one per node.
        largest_node, total_memory_capacity = 1.0, float(num_nodes)
        cap_counts: Iterable[Tuple[float, int]] = ((1.0, num_nodes),)
    else:
        mem_caps = [memory for _, memory in capacities]
        largest_node = max(mem_caps)
        total_memory_capacity = sum(mem_caps)
        cap_counts = Counter(mem_caps).items()
    verdicts = [True]
    volume = 0.0
    tasks = big_tasks = 0
    smallest = math.inf
    pairing_ok = True
    for job in jobs:
        if job.mem_requirement > largest_node + BIN_EPSILON:
            # Every longer prefix holds this oversized job too.
            verdicts += [False] * (len(jobs) + 1 - len(verdicts))
            break
        volume += job.num_tasks * job.mem_requirement
        tasks += job.num_tasks
        if job.mem_requirement > 0.5 + 1e-9:
            big_tasks += job.num_tasks
            smallest = min(smallest, job.mem_requirement)
            allowance = _rounding_allowance(big_tasks)
            hosting_slots = sum(
                count * int((cap + BIN_EPSILON) / smallest * allowance)
                for cap, count in cap_counts
            )
            pairing_ok = big_tasks <= hosting_slots
        verdicts.append(
            pairing_ok
            and not _volume_exceeded(volume, tasks, total_memory_capacity, num_nodes)
        )
    return verdicts


def cpu_volume_exceeded(
    demand: float,
    tasks: int,
    num_nodes: int,
    capacities: Optional[Sequence[Tuple[float, float]]] = None,
) -> bool:
    """Proof that no packer can place ``tasks`` items needing ``demand`` CPU.

    ``demand`` must sum the requirements the items *carry* — for a yield
    search ``tasks × min(1, need × Y)`` per job, clamp included.  Padded like
    the memory volume test of :func:`infeasibility_reasons` (a down node is a
    zero-capacity bin that still grants its epsilon); the only test a search
    may skip a pack on.
    """
    total = float(num_nodes) if capacities is None else sum(c for c, _ in capacities)
    return _volume_exceeded(demand, tasks, total, num_nodes)


def infeasibility_reasons(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    *,
    capacities: Optional[Sequence[Tuple[float, float]]] = None,
) -> Dict[str, str]:
    """Machine-checkable reasons why no allocation can exist, if any.

    Returns an empty mapping when no necessary condition is violated.  Keys
    identify the violated condition (``"task-memory"``, ``"volume"``,
    ``"pairing"``); values are human-readable explanations.  On
    heterogeneous platforms the per-task bound uses the *largest* node's
    memory, the volume bound uses the aggregate memory capacity, and the
    pairing bound pairs big tasks with the nodes that can host two of them.
    """
    if num_nodes < 1:
        raise ReproError(f"num_nodes must be >= 1, got {num_nodes}")
    mem_caps = (
        [1.0] * num_nodes
        if capacities is None
        else [memory for _, memory in capacities]
    )
    largest_node = max(mem_caps)
    total_memory_capacity = sum(mem_caps)
    reasons: Dict[str, str] = {}
    oversized = [
        job.job_id
        for job in jobs
        if job.mem_requirement > largest_node + BIN_EPSILON
    ]
    if oversized:
        reasons["task-memory"] = (
            f"jobs {oversized} have tasks whose memory requirement exceeds "
            "the largest node"
        )
    volume = total_memory_requirement(jobs)
    tasks = sum(job.num_tasks for job in jobs)
    if _volume_exceeded(volume, tasks, total_memory_capacity, num_nodes):
        reasons["volume"] = (
            f"total memory requirement {volume:.2f} node-units exceeds the "
            f"{total_memory_capacity:g} node-units available"
        )
    big = [job for job in jobs if job.mem_requirement > 0.5 + 1e-9]
    if big:
        big_tasks = sum(job.num_tasks for job in big)
        # Every big task needs at least the smallest big requirement, so a
        # node of capacity c hosts at most floor(c / m_min) of them; on unit
        # nodes (m_min > 0.5 so floor(1/m_min) = 1) this is exactly the
        # classical two-big-items-cannot-share pairing bound.
        smallest = min(job.mem_requirement for job in big)
        allowance = _rounding_allowance(big_tasks)
        hosting_slots = sum(
            int((cap + BIN_EPSILON) / smallest * allowance) for cap in mem_caps
        )
        if big_tasks > hosting_slots:
            reasons["pairing"] = (
                f"{big_tasks} tasks each need more than half a reference "
                f"node's memory but at most {hosting_slots} such tasks fit "
                "the cluster"
            )
    return reasons
