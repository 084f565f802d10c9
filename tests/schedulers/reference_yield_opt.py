"""The leftover-CPU finalize as it stood before carried loads — test oracle.

Verbatim copies of the parent commit's ``fair_yields``, ``task_counts``,
``raise_yields_in_order``, ``improve_average_yield`` and ``build_allocations``
from ``repro.schedulers.dfrs.yield_opt``: node counts recounted task by task
at every call, eligibility and the smallest quotient in two scans per raise,
and a fresh ``JobAllocation`` per placed job.  ``test_finalize_differential.py``
holds the live finalize to these, yield for yield with ``==``.  Do not
optimise or tidy this file: being slow and obviously right is its job.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from repro.core.allocation import JobAllocation
from repro.core.cluster import CAPACITY_EPSILON, Cluster
from repro.core.context import JobView
from repro.core.job import MINIMUM_YIELD


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
    # ``raise_yields_in_order``) and not in a four-vector ``ClusterUsage``.
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


def task_counts(placements: Mapping[int, Tuple[int, ...]]) -> Dict[int, Dict[int, int]]:
    """Per placed job, its task count on each hosting node, in first-use order."""
    counts: Dict[int, Dict[int, int]] = {}
    for job_id, nodes in placements.items():
        counts[job_id] = per_node = {}
        for node in nodes:
            per_node[node] = per_node.get(node, 0) + 1
    return counts


def raise_yields_in_order(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
    key: Callable[[int], Any],
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
    """
    improved: Dict[int, float] = dict(yields)
    # The pass raises only jobs below this yield; with none, it changes nothing.
    if not any(improved[job_id] < 1.0 - 1e-9 for job_id in placements):
        return improved

    # Allocated CPU and CPU capacity per node, as plain Python floats: the
    # same IEEE doubles as numpy's, without the scalar boxing.
    allocated = [0.0] * cluster.num_nodes
    capacity = cluster.cpu_capacity_vector().tolist()
    tasks_per_node = task_counts(placements)
    for job_id, counts in tasks_per_node.items():
        need = jobs[job_id].cpu_need
        for node, count in counts.items():
            allocated[node] += count * need * improved[job_id]

    for job_id in sorted(placements, key=key):
        counts = tasks_per_node[job_id]
        need = jobs[job_id].cpu_need
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


def improve_average_yield(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
) -> Dict[int, float]:
    """Paper §III-A: leftover CPU to the smallest total CPU need first."""
    return raise_yields_in_order(
        placements, yields, jobs, cluster, lambda job_id: jobs[job_id].total_cpu_need
    )


def build_allocations(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
) -> Dict[int, JobAllocation]:
    """Combine placements and yields into :class:`JobAllocation` objects."""
    return {
        job_id: JobAllocation.create(nodes, yields[job_id])
        for job_id, nodes in placements.items()
    }
