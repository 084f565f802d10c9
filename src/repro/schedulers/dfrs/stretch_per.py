"""DYNMCB8-STRETCH-PER: periodic packing driven by estimated stretch (§III-B).

Instead of maximizing the instantaneous minimum yield, this variant minimizes
an *estimate* of the maximum stretch at the next scheduling event.  Since job
execution times are unknown, the estimated stretch of job *j* is its flow
time over its virtual time; assuming the job runs until the next event (one
period ``T`` later) with yield ``y_j`` the estimate becomes
``(flow_j + T) / (vt_j + y_j T)``.  A binary search finds the smallest target
value for which the induced CPU requirements can be packed by MCB8; jobs are
evicted by priority when even the most permissive target is infeasible.

Where the other algorithms finish with the average-*yield* improvement
heuristic, this one improves the average *estimated stretch*: the same
one-pass :func:`~.yield_opt.raise_yields_in_order` hands leftover CPU out,
worst estimated stretch at the next event first.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

from ...core.allocation import AllocationDecision
from ...core.context import JobView, SchedulingContext
from ...packing.yield_search import minimize_estimated_stretch
from .periodic import DynMcb8PeriodicScheduler
from .yield_opt import build_allocations, raise_yields_in_order

__all__ = ["DynMcb8StretchPeriodicScheduler"]


class DynMcb8StretchPeriodicScheduler(DynMcb8PeriodicScheduler):
    """The paper's DYNMCB8-STRETCH-PER algorithm."""

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"dynmcb8-stretch-per-{int(self.period)}"

    # -- periodic repacking, stretch flavoured ---------------------------------
    def _repack_all(
        self, context: SchedulingContext, decision: AllocationDecision
    ) -> AllocationDecision:
        placements, yields = self._stretch_repack(
            context, list(context.jobs.values())
        )
        yields = self._improve_average_stretch(placements, yields, context)
        decision.running = build_allocations(placements, yields, context.current_allocations())
        return decision

    def _stretch_repack(
        self, context: SchedulingContext, candidates: List[JobView]
    ) -> Tuple[Dict[int, Tuple[int, ...]], Dict[int, float]]:
        """Pack candidates minimizing the estimated max stretch, evicting by priority."""
        result = self._search_evicting(
            context, candidates, partial(minimize_estimated_stretch, period=self.period)
        )
        if result is None:
            return {}, {}
        return dict(result.assignments), dict(result.yields)

    def _improve_average_stretch(
        self,
        placements: Dict[int, Tuple[int, ...]],
        yields: Dict[int, float],
        context: SchedulingContext,
    ) -> Dict[int, float]:
        """Give leftover CPU to the jobs with the worst estimated stretch,
        ``(flow + T) / (vt + y T)`` at the input yields, first."""

        def worst_stretch_first(job_id: int) -> float:
            view = context.jobs[job_id]
            denominator = view.virtual_time + yields[job_id] * self.period
            return -((context.flow_time(view) + self.period) / max(denominator, 1e-9))

        return raise_yields_in_order(
            placements, yields, context.jobs, context.cluster, worst_stretch_first, self._loads
        )
