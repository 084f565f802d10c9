"""Yield assignment helpers shared by the DFRS schedulers.

Two steps are composed by every DFRS algorithm except DYNMCB8-STRETCH-PER
(paper §III-A):

1. :func:`fair_yields` — given fixed placements, give every job the same
   yield ``1 / max(1, Λ)`` where Λ is the maximum CPU load (sum of CPU
   *needs*) over all nodes.  This maximizes the minimum yield for the given
   placement.
2. :func:`improve_average_yield` — repeatedly pick, among the jobs whose
   nodes all have spare CPU capacity, the one with the smallest total CPU
   need (best improvement of the average yield per unit of CPU consumed) and
   raise its yield as much as possible.  This never decreases any yield, so
   it is a single pass over the jobs in increasing total CPU need.

Placements are expressed as a mapping ``job_id -> tuple of node indices`` and
job characteristics are read from :class:`~repro.core.context.JobView`
objects, so these helpers are usable both on current allocations and on
hypothetical packings.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ...core.allocation import JobAllocation
from ...core.cluster import CAPACITY_EPSILON, Cluster
from ...core.context import JobView
from ...core.job import MINIMUM_YIELD

__all__ = ["fair_yields", "improve_average_yield", "build_allocations"]


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
    # Per-node sum of CPU needs in placement order.  Only its maximum is
    # wanted, so it is summed in a plain list (the same IEEE doubles, see
    # ``improve_average_yield``) and not in a four-vector ``ClusterUsage``.
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


def improve_average_yield(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
) -> Dict[int, float]:
    """Greedy average-yield improvement (paper §III-A).

    Returns a new yield mapping that is point-wise ``>=`` the input and keeps
    every node's allocated CPU fraction within capacity.
    """
    improved: Dict[int, float] = dict(yields)
    # The loop below raises only jobs below this yield; with none, it would
    # change nothing.
    if not any(improved[job_id] < 1.0 - 1e-9 for job_id in placements):
        return improved

    # Allocated CPU fraction per node under the current yields, and each
    # node's CPU capacity (the literal 1.0 of the paper's model on
    # homogeneous clusters; the per-node vector otherwise).  Plain Python
    # floats: the same IEEE doubles as numpy's, without the scalar boxing.
    allocated = [0.0] * cluster.num_nodes
    capacity = cluster.cpu_capacity_vector().tolist()
    tasks_per_node: Dict[int, Dict[int, int]] = {}
    for job_id, nodes in placements.items():
        need = jobs[job_id].cpu_need
        counts: Dict[int, int] = {}
        for node in nodes:
            counts[node] = counts.get(node, 0) + 1
        tasks_per_node[job_id] = counts
        for node, count in counts.items():
            allocated[node] += count * need * improved[job_id]

    # Allocations and yields only grow, so a job that cannot be raised now
    # never can be later, and a raised job ends saturated.  "Repeatedly pick
    # the eligible job with the smallest total CPU need" is therefore one
    # pass in that order; the stable sort keeps placement order among equals.
    for job_id in sorted(placements, key=lambda job_id: jobs[job_id].total_cpu_need):
        counts = tasks_per_node[job_id]
        need = jobs[job_id].cpu_need
        # Eligible: yield below 1 and spare CPU on every node hosting the job.
        while improved[job_id] < 1.0 - 1e-9 and all(
            allocated[node] < capacity[node] - CAPACITY_EPSILON for node in counts
        ):
            # Largest yield increase that keeps every hosting node within capacity.
            delta = min(
                (capacity[node] - allocated[node]) / (count * need)
                for node, count in counts.items()
            )
            delta = min(delta, 1.0 - improved[job_id])
            if delta <= 1e-9:
                # Numerical corner: nudge the job towards saturation and retry.
                improved[job_id] = min(1.0, improved[job_id] + 1e-9)
                continue
            improved[job_id] += delta
            for node, count in counts.items():
                allocated[node] += count * need * delta
    return improved


def build_allocations(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
) -> Dict[int, JobAllocation]:
    """Combine placements and yields into :class:`JobAllocation` objects."""
    return {
        job_id: JobAllocation.create(nodes, yields[job_id])
        for job_id, nodes in placements.items()
    }
