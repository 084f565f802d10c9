"""GREEDY: incremental DFRS scheduling without preemption (paper §III-A).

For every job awaiting admission, each task is placed on the memory-feasible
node with the lowest CPU load.  If some task cannot be placed the whole job
is postponed with bounded exponential backoff (``min(2^12, 2^count)``
seconds).  Once placements are fixed, every running job receives the fair
yield ``1 / max(1, Λ)`` and the average-yield improvement heuristic
distributes the remaining CPU capacity.

GREEDY never pauses or migrates jobs, which is exactly why its maximum
stretch can grow without bound: a short job can be postponed arbitrarily long
behind memory-hungry jobs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...core.allocation import AllocationDecision
from ...core.context import JobView, SchedulingContext
from ..base import Scheduler
from .placement import greedy_place_job, usage_from_placements
from .yield_opt import CarriedLoads, build_allocations, fair_yields, improve_average_yield

__all__ = ["GreedyScheduler", "MAX_BACKOFF_SECONDS"]

#: Upper bound of the exponential backoff (2^12 seconds, paper §III-A).
MAX_BACKOFF_SECONDS = 2 ** 12


class GreedyScheduler(Scheduler):
    """The paper's GREEDY algorithm."""

    name = "greedy"
    #: Plain GREEDY never pauses and never resumes; the PMTN subclasses
    #: flip this back on.
    resumes_paused_jobs = False

    def __init__(self) -> None:
        self._retry_counts: Dict[int, int] = {}
        self._retry_times: Dict[int, float] = {}
        self._loads = CarriedLoads()

    def start(self, cluster, start_time: float) -> None:
        super().start(cluster, start_time)
        self._retry_counts.clear()
        self._retry_times.clear()
        self._loads = CarriedLoads()

    # -- helpers ---------------------------------------------------------------
    def _eligible_pending(self, context: SchedulingContext) -> List[JobView]:
        """Pending jobs whose backoff timer (if any) has expired."""
        views = []
        for view in context.pending_jobs():
            retry_at = self._retry_times.get(view.job_id, view.submit_time)
            if retry_at <= context.time + 1e-9:
                views.append(view)
        views.sort(key=lambda v: (v.submit_time, v.job_id))
        return views

    def _postpone(
        self, view: JobView, context: SchedulingContext, decision: AllocationDecision
    ) -> None:
        count = self._retry_counts.get(view.job_id, 0) + 1
        self._retry_counts[view.job_id] = count
        delay = min(MAX_BACKOFF_SECONDS, 2 ** count)
        self._retry_times[view.job_id] = context.time + delay
        decision.request_wakeup(context.time + delay)

    def _forget(self, job_id: int) -> None:
        self._retry_counts.pop(job_id, None)
        self._retry_times.pop(job_id, None)

    def _drop_departed(self, context: SchedulingContext) -> None:
        """Forget the back-off of jobs that left while postponed (cancelled)."""
        departed = [
            job_id for job_id in self._retry_counts if job_id not in context.jobs
        ]
        for job_id in departed:
            self._forget(job_id)

    def _finalize(
        self,
        placements: Dict[int, Tuple[int, ...]],
        context: SchedulingContext,
        decision: AllocationDecision,
    ) -> AllocationDecision:
        """Assign fair yields, improve the average yield, emit the decision."""
        yields = fair_yields(placements, context.jobs, context.cluster)
        yields = improve_average_yield(
            placements, yields, context.jobs, context.cluster, self._loads
        )
        decision.running = build_allocations(
            placements, yields, context.current_allocations()
        )
        return decision

    # -- policy ----------------------------------------------------------------
    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        self._drop_departed(context)
        decision = AllocationDecision()
        placements: Dict[int, Tuple[int, ...]] = {
            view.job_id: view.assignment  # type: ignore[misc]
            for view in context.running_jobs()
        }
        usage = usage_from_placements(
            placements, context.jobs, context.cluster,
            unavailable=context.down_nodes,
        )

        for view in self._eligible_pending(context):
            nodes = greedy_place_job(view, usage)
            if nodes is None:
                self._postpone(view, context, decision)
            else:
                placements[view.job_id] = tuple(nodes)
                self._forget(view.job_id)

        return self._finalize(placements, context, decision)
