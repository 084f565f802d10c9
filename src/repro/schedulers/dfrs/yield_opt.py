"""Yield assignment helpers shared by the DFRS schedulers.

Every DFRS algorithm shares CPU among fixed placements in two steps:

1. A starting yield: :func:`fair_yields` gives every job ``1 / max(1, Λ)``,
   where Λ is the maximum CPU load (sum of CPU *needs*) over all nodes — the
   largest minimum yield for the placement (paper §III-A).
   ``weighted_fair_yields`` and DYNMCB8-STRETCH-PER's search are the others.
2. Leftover CPU goes out in one ordered pass, :func:`raise_yields_in_order`:
   smallest total CPU need first (:func:`improve_average_yield`, the paper's
   average-yield heuristic), heaviest weight first (``-weighted``), or worst
   estimated stretch first (DYNMCB8-STRETCH-PER, paper §III-B).

Placements are expressed as a mapping ``job_id -> tuple of node indices`` and
job characteristics are read from :class:`~repro.core.context.JobView`
objects, so these helpers are usable both on current allocations and on
hypothetical packings.

The pass reads a placement as per-job ``(node, count × cpu_need)`` pairs
(:func:`job_loads`).  A scheduler keeps a :class:`CarriedLoads`, so a job
whose nodes did not change since the previous decision is not recounted, and
:func:`build_allocations` hands back a job's live allocation when the
decision keeps it as it is.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ...core.allocation import JobAllocation
from ...core.cluster import CAPACITY_EPSILON, Cluster
from ...core.context import JobView
from ...core.job import MINIMUM_YIELD

__all__ = [
    "fair_yields",
    "job_loads",
    "CarriedLoads",
    "raise_yields_in_order",
    "improve_average_yield",
    "build_allocations",
]

#: Per placed job, ``(node, count × cpu_need)`` for each hosting node.
JobLoads = Dict[int, List[Tuple[int, float]]]


def fair_yields(
    placements: Mapping[int, Tuple[int, ...]],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
) -> Dict[int, float]:
    """Identical yield ``1 / max(1, Λ)`` for every placed job.

    On heterogeneous clusters Λ is the maximum *speed-normalised* load
    (``load / cpu_capacity``), so the common yield keeps every node —
    fast or slow — within its own CPU capacity.
    """
    if not placements:
        return {}
    # Per-node sum of CPU needs in placement order, task by task (a count ×
    # need product would round differently).  Only its maximum is wanted, so
    # it is summed in a plain list (the same IEEE doubles as numpy's) and not
    # in a four-vector ``ClusterUsage``.
    loads = [0.0] * cluster.num_nodes
    for job_id, nodes in placements.items():
        need = jobs[job_id].cpu_need
        for node in nodes:
            loads[node] += need
    if cluster.cpu_capacities is not None:
        loads = [load / speed for load, speed in zip(loads, cluster.cpu_capacities)]
    value = 1.0 / max(1.0, max(loads))
    value = min(1.0, max(MINIMUM_YIELD, value))
    return {job_id: value for job_id in placements}


def _loads_of(nodes: Tuple[int, ...], need: float) -> List[Tuple[int, float]]:
    """``(node, count × need)`` for each node hosting ``count`` of the tasks,
    in first-use order."""
    counts: Dict[int, int] = {}
    for node in nodes:
        counts[node] = counts.get(node, 0) + 1
    return [(node, count * need) for node, count in counts.items()]


def job_loads(
    placements: Mapping[int, Tuple[int, ...]], jobs: Mapping[int, JobView]
) -> JobLoads:
    """Per placed job, the CPU each hosting node gives it at yield 1:
    ``(node, count × cpu_need)`` pairs, nodes in first-use order."""
    return {
        job_id: _loads_of(nodes, jobs[job_id].cpu_need)
        for job_id, nodes in placements.items()
    }


class CarriedLoads:
    """:func:`job_loads` carried from one decision to the next.

    A scheduler holds one and calls it with each decision's placements.  A
    job whose nodes (in order) and ``cpu_need`` equal what the previous call
    saw keeps its pairs; the others are recounted.  Only this call's jobs are
    kept, so the carry never outgrows one decision.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Tuple[int, ...], float, List[Tuple[int, float]]]] = {}

    def __call__(
        self, placements: Mapping[int, Tuple[int, ...]], jobs: Mapping[int, JobView]
    ) -> JobLoads:
        previous = self._entries
        entries = {}
        loads = {}
        for job_id, nodes in placements.items():
            need = jobs[job_id].cpu_need
            entry = previous.get(job_id)
            if entry is None or entry[1] != need or (entry[0] is not nodes and entry[0] != nodes):
                entry = (nodes, need, _loads_of(nodes, need))
            entries[job_id] = entry
            loads[job_id] = entry[2]
        self._entries = entries
        return loads


def raise_yields_in_order(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
    key: Callable[[int], Any],
    carried: Optional[CarriedLoads] = None,
) -> Dict[int, float]:
    """Raise each placed job, in increasing ``key`` order, as far as its nodes allow.

    Returns new yields, point-wise ``>=`` the input, within every node's CPU
    capacity.  ``key`` is read once per job before any raise, and the stable
    sort lets placement order break ties.  This equals "repeatedly raise the
    eligible job (yield below ``1 - 1e-9``, more than ``CAPACITY_EPSILON``
    spare on each of its nodes) with the smallest key, the first placed on a
    tie": an unraised job's key reads only static view fields and its own
    unchanged input yield, a raised job ends saturated, and eligibility only
    shrinks.  The exception is the nudge branch (an increase ``<= 1e-9``
    while eligible, so ``count × need > 1000`` on a node, so a node CPU
    capacity above 10): the pass steps that job's yield by 1e-9, nodes
    uncharged, up to ``1 - 1e-9`` before the next job, where a rescan on a
    key that reads the yield (the stretch) could switch after one step.
    Only the stepped job's yield can differ.

    The pass reads :func:`job_loads` of the placements, through ``carried``
    when a scheduler passes its :class:`CarriedLoads`; every charge is
    ``(count × need) × yield``, the product ``count * need * yield``
    evaluates to.
    """
    improved: Dict[int, float] = dict(yields)
    # The pass raises only jobs below this yield; with none, it changes nothing.
    if not any(improved[job_id] < 1.0 - 1e-9 for job_id in placements):
        return improved
    loads = job_loads(placements, jobs) if carried is None else carried(placements, jobs)

    # Allocated CPU, CPU capacity and the eligibility limit per node, as
    # plain Python floats: the same IEEE doubles as numpy's, without the
    # scalar boxing.
    allocated = [0.0] * cluster.num_nodes
    capacity = cluster.cpu_capacity_vector().tolist()
    limit = [value - CAPACITY_EPSILON for value in capacity]
    for job_id in placements:
        value = improved[job_id]
        for node, load in loads[job_id]:
            allocated[node] += load * value

    for job_id in sorted(placements, key=key):
        pairs = loads[job_id]
        while improved[job_id] < 1.0 - 1e-9:
            # Largest yield increase that keeps every hosting node within
            # capacity (the first smallest quotient, as ``min`` keeps), or
            # none once some node has no spare CPU.
            delta = None
            for node, load in pairs:
                used = allocated[node]
                if not used < limit[node]:
                    break
                room = (capacity[node] - used) / load
                if delta is None or room < delta:
                    delta, bound = room, node
            else:
                delta = min(delta, 1.0 - improved[job_id])
                if delta <= 1e-9:
                    # Numerical corner: nudge the job towards saturation and retry.
                    improved[job_id] = min(1.0, improved[job_id] + 1e-9)
                    continue
                improved[job_id] += delta
                for node, load in pairs:
                    allocated[node] += load * delta
                # One full node ends the job's raises, and the node that
                # bounded this raise is normally full now: no rescan then.
                if allocated[bound] < limit[bound]:
                    continue
            break
    return improved


def improve_average_yield(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
    carried: Optional[CarriedLoads] = None,
) -> Dict[int, float]:
    """Paper §III-A: leftover CPU to the smallest total CPU need first."""
    return raise_yields_in_order(
        placements, yields, jobs, cluster, lambda job_id: jobs[job_id].total_cpu_need, carried
    )


def build_allocations(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
    live: Optional[Mapping[int, JobAllocation]] = None,
) -> Dict[int, JobAllocation]:
    """Combine placements and yields into :class:`JobAllocation` objects.

    A job whose ``live`` allocation (``context.current_allocations()``) has
    the same nodes in the same order and the same clamped yield gets that
    object back: it equals what :meth:`JobAllocation.create` would build.
    """
    if live is None:
        live = {}
    allocations: Dict[int, JobAllocation] = {}
    for job_id, nodes in placements.items():
        value = yields[job_id]
        current = live.get(job_id)
        if (
            current is None
            or current.yield_value != min(1.0, max(MINIMUM_YIELD, value))
            or current.nodes != nodes
        ):
            current = JobAllocation.create(nodes, value)
        allocations[job_id] = current
    return allocations
