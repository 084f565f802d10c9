"""Greedy memory-constrained task placement (paper §III-A, GREEDY).

For each task of a job, among the nodes that still have enough free memory,
the node with the lowest CPU load (sum of CPU needs of the tasks it hosts) is
chosen.  A node whose remaining memory can no longer host another task drops
out of consideration automatically.  The helper operates on a scratch
:class:`~repro.core.cluster.ClusterUsage` so callers can chain placements of
several jobs and roll back on failure.

Cost: one job builds its memory-fit mask and masked load keys once, in
:meth:`ClusterUsage.place_least_loaded`; each task is then one ``argmin``
plus a scalar update of the chosen node's key (no per-node Python work).
The "would it fit?" question of :func:`can_place_job` looks at memory only.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Tuple

from ...core.cluster import ClusterUsage
from ...core.context import JobView

__all__ = ["greedy_place_job", "usage_from_placements", "can_place_job"]


def greedy_place_job(view: JobView, usage: ClusterUsage) -> Optional[List[int]]:
    """Place every task of ``view`` on the least loaded memory-feasible node,
    by :meth:`ClusterUsage.place_least_loaded`, which holds the rule.

    On success the placement is committed to ``usage`` (CPU load and memory
    are updated; no CPU fraction is reserved since yields are decided later)
    and the list of node indices is returned.  On failure the tasks placed so
    far are removed again and ``None`` is returned.
    """
    return usage.place_least_loaded(view.num_tasks, view.cpu_need, view.mem_requirement)


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
        [
            (nodes, jobs[job_id].cpu_need, jobs[job_id].mem_requirement, 0.0)
            for job_id, nodes in placements.items()
        ],
        check=False,
    )
    return usage
