"""DYNMCB8's memo-free ``repack`` as it stood at bb5b155 — test oracle.

Verbatim copies of the parent commit's ``DynMcb8Scheduler.repack`` and
``_search_evicting``: every repack runs a fresh ``maximize_min_yield`` per
eviction round.  The live ``repack`` answers a round from the previous
repack's searches when the job set, node count and bin capacities are the
same; ``test_repack_memo_differential.py`` requires that nothing can tell —
same placement-log bytes, same cost floats, same observer events in the same
order.

:class:`ReferenceRepack` is a mixin: put it in front of any DYNMCB8 class
(``reference_scheduler`` does, for a registry name) and that class packs the
old way while everything else about it stays live.  ``_search_evicting`` is
copied too, so a change that moved the memo into it — where
DYNMCB8-STRETCH-PER would reach it — is caught by the stretch class built
with this mixin.  Do not optimise or tidy this file: being slow and obviously
right is its job.  One edit since it was copied: the flow time and the
priority sort's ``now`` come from the context, since ``JobView`` no longer
carries a ``flow_time`` field.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.context import JobView, SchedulingContext
from repro.packing.bounds import memory_feasible
from repro.packing.yield_search import PackingJob, maximize_min_yield
from repro.schedulers.dfrs.dynmcb8 import DynMcb8Scheduler
from repro.schedulers.dfrs.priority import sort_by_increasing_priority
from repro.schedulers.dfrs.stretch_per import DynMcb8StretchPeriodicScheduler
from repro.schedulers.registry import create_scheduler


class ReferenceRepack:
    """The parent commit's ``repack`` and ``_search_evicting``, verbatim."""

    def repack(
        self, context: SchedulingContext, candidates: List[JobView]
    ) -> Tuple[Dict[int, Tuple[int, ...]], float]:
        """Pack as many candidate jobs as possible at the best common yield.

        Jobs are evicted in increasing priority order until the packing
        becomes feasible.  Returns the per-job placements and the achieved
        minimum yield.
        """
        result = self._search_evicting(context, candidates, maximize_min_yield)
        if result is None:
            return {}, 1.0
        return dict(result.assignments), result.yield_value

    @staticmethod
    def _search_evicting(
        context: SchedulingContext,
        candidates: List[JobView],
        search: Callable[..., Any],
    ) -> Optional[Any]:
        """First successful ``search`` while evicting lowest-priority jobs.

        ``search(jobs, num_nodes, capacities=...)`` is one of the binary
        searches of :mod:`repro.packing.yield_search`.  Rounds whose memory
        footprint provably cannot fit are skipped without packing.
        """
        # Evict lowest-priority jobs first, so process a mutable list sorted
        # from most to least deserving (we pop from the end).
        packing_jobs = [
            PackingJob(
                job_id=view.job_id,
                num_tasks=view.num_tasks,
                cpu_need=view.cpu_need,
                mem_requirement=view.mem_requirement,
                flow_time=context.flow_time(view),
                virtual_time=view.virtual_time,
            )
            for view in reversed(sort_by_increasing_priority(candidates, context.time))
        ]
        num_nodes = context.cluster.num_nodes
        # None on homogeneous, fully-up clusters (the unit-bin fast path);
        # per-node (cpu, mem) capacities otherwise, with down nodes as
        # zero-capacity bins no packing can land on.
        capacities = context.packing_capacities()
        while packing_jobs:
            if memory_feasible(packing_jobs, num_nodes, capacities=capacities):
                result = search(packing_jobs, num_nodes, capacities=capacities)
                if result.success:
                    return result
            packing_jobs.pop()
        return None


def uses_repack_memo(name: str) -> bool:
    """True for the algorithms whose yield searches go through the live memo."""
    scheduler = create_scheduler(name)
    return isinstance(scheduler, DynMcb8Scheduler) and not isinstance(
        scheduler, DynMcb8StretchPeriodicScheduler
    )


def reference_scheduler(name: str) -> DynMcb8Scheduler:
    """``create_scheduler(name)``, repacking through :class:`ReferenceRepack`."""
    live = create_scheduler(name)
    assert isinstance(live, DynMcb8Scheduler), name
    cls = type(f"Reference{type(live).__name__}", (ReferenceRepack, type(live)), {})
    scheduler = object.__new__(cls)
    vars(scheduler).update(vars(live))  # the registry's constructor arguments
    return scheduler
