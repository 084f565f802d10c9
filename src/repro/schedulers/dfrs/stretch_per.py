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
heuristic, this one improves the average *estimated stretch*: leftover CPU is
repeatedly given to the job whose estimated stretch at the next event is the
worst among those that can still be sped up.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from ...core.allocation import AllocationDecision
from ...core.cluster import CAPACITY_EPSILON
from ...core.context import JobView, SchedulingContext
from ...packing.yield_search import minimize_estimated_stretch
from .periodic import DEFAULT_PERIOD, DynMcb8PeriodicScheduler
from .yield_opt import build_allocations

__all__ = ["DynMcb8StretchPeriodicScheduler"]


class DynMcb8StretchPeriodicScheduler(DynMcb8PeriodicScheduler):
    """The paper's DYNMCB8-STRETCH-PER algorithm."""

    def __init__(self, period: float = DEFAULT_PERIOD) -> None:
        super().__init__(period)

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
        decision.running = build_allocations(placements, yields)
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
        """Give leftover CPU to the jobs with the worst estimated stretch."""
        improved = dict(yields)
        if not placements:
            return improved
        cluster = context.cluster
        allocated = np.zeros(cluster.num_nodes, dtype=float)
        capacity = cluster.cpu_capacity_vector()
        tasks_per_node: Dict[int, Dict[int, int]] = {}
        for job_id, nodes in placements.items():
            need = context.jobs[job_id].cpu_need
            counts: Dict[int, int] = {}
            for node in nodes:
                counts[node] = counts.get(node, 0) + 1
            tasks_per_node[job_id] = counts
            for node, count in counts.items():
                allocated[node] += count * need * improved[job_id]

        def estimated_stretch(job_id: int) -> float:
            view = context.jobs[job_id]
            denominator = view.virtual_time + improved[job_id] * self.period
            return (context.flow_time(view) + self.period) / max(denominator, 1e-9)

        while True:
            best_job = None
            worst_stretch = -1.0
            for job_id in placements:
                if improved[job_id] >= 1.0 - 1e-9:
                    continue
                counts = tasks_per_node[job_id]
                if all(
                    allocated[node] < capacity[node] - CAPACITY_EPSILON
                    for node in counts
                ):
                    stretch = estimated_stretch(job_id)
                    if stretch > worst_stretch:
                        worst_stretch = stretch
                        best_job = job_id
            if best_job is None:
                break
            counts = tasks_per_node[best_job]
            need = context.jobs[best_job].cpu_need
            delta = min(
                (capacity[node] - allocated[node]) / (count * need)
                for node, count in counts.items()
            )
            delta = min(delta, 1.0 - improved[best_job])
            if delta <= 1e-9:
                improved[best_job] = min(1.0, improved[best_job] + 1e-9)
                continue
            improved[best_job] += delta
            for node, count in counts.items():
                allocated[node] += count * need * delta
        return improved
