"""Greedy memory-constrained task placement (paper §III-A, GREEDY).

For each task of a job, among the nodes that still have enough free memory,
the node with the lowest CPU load (sum of CPU needs of the tasks it hosts) is
chosen.  A node whose remaining memory can no longer host another task drops
out of consideration automatically.  The helper operates on a scratch
:class:`~repro.core.cluster.ClusterUsage` so callers can chain placements of
several jobs and roll back on failure.

Cost: each task is a handful of O(nodes) vector operations inside
:meth:`ClusterUsage.least_loaded_fitting` (no per-node Python work); the
"would it fit?" question of :func:`can_place_job` looks at memory only.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Tuple

from ...core.cluster import ClusterUsage
from ...core.context import JobView

__all__ = ["greedy_place_job", "usage_from_placements", "can_place_job"]


def greedy_place_job(view: JobView, usage: ClusterUsage) -> Optional[List[int]]:
    """Place every task of ``view`` on the least loaded memory-feasible node.

    On success the placement is committed to ``usage`` (CPU load and memory
    are updated; no CPU fraction is reserved since yields are decided later)
    and the list of node indices is returned.  On failure the tasks placed so
    far are removed again and ``None`` is returned.

    Capacity and availability awareness live entirely in the usage tally:
    ``least_loaded_fitting`` compares speed-normalised loads, checks memory
    against each node's own capacity and never returns a down node — on a
    homogeneous, fully-up cluster it is the paper's original rule exactly.
    """
    placed: List[int] = []
    for _ in range(view.num_tasks):
        node = usage.least_loaded_fitting(view.mem_requirement)
        if node < 0:
            # Task-by-task removal, not a restore: later tie-breaks see the
            # (a + b) - b rounding this leaves, and the pinned placement logs
            # were produced with it.
            for node in placed:
                usage.remove_task(node, view.cpu_need, view.mem_requirement, 0.0)
            return None
        usage.add_task(node, view.cpu_need, view.mem_requirement, 0.0)
        placed.append(node)
    return placed


def can_place_job(view: JobView, usage: ClusterUsage) -> bool:
    """True if :func:`greedy_place_job` would succeed; ``usage`` is not touched.

    Greedy placement fails only when no available node has room for the next
    task, so it succeeds exactly when the available nodes hold at least
    ``num_tasks`` memory slots — CPU load decides *where*, never *whether*.
    """
    return usage.memory_slots(view.mem_requirement, view.num_tasks) >= view.num_tasks


def usage_from_placements(
    placements: Mapping[int, Tuple[int, ...]],
    jobs: Mapping[int, JobView],
    cluster,
    *,
    unavailable: Iterable[int] = (),
) -> ClusterUsage:
    """Usage tally (memory + CPU load) implied by a set of placements.

    ``unavailable`` marks down nodes so subsequent placements skip them.
    """
    usage = cluster.usage(unavailable)
    usage.add_jobs(
        (
            (nodes, jobs[job_id].cpu_need, jobs[job_id].mem_requirement, 0.0)
            for job_id, nodes in placements.items()
        ),
        check=False,
    )
    return usage
