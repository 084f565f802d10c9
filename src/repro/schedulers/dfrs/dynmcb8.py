"""DYNMCB8: global reallocation via vector packing at every event (§III-B).

At every job submission or completion the whole set of active jobs (running,
paused, and pending) is repacked from scratch: a binary search on the yield
finds the largest value for which the MCB8 vector-packing heuristic can place
every task, all placed jobs receive that yield, and the average-yield
heuristic then distributes leftover CPU.  If no yield admits a packing (the
memory requirements alone do not fit), the job with the smallest priority is
evicted from consideration and the search is retried.

This is the most aggressive DFRS algorithm: with no rescheduling penalty it
is nearly optimal, but its heavy use of preemption and migration makes it
lose to the periodic variants once a realistic penalty is charged.

A repack reuses the previous repack's search — and allocations, for the round
that succeeds — of an eviction round whose job *set* (``job_id``,
``num_tasks``, ``cpu_need``, ``mem_requirement``), node count and bin
capacities are unchanged.  The set suffices although the jobs come in priority
order: nothing else is read, the pruning test is a proof whatever the order of
additions, and MCB8 sorts runs by a total order.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...core.allocation import AllocationDecision
from ...core.context import JobView, SchedulingContext
from ...obs.telemetry import current_telemetry
from ...packing.bounds import memory_feasible_prefixes
from ...packing.mcb8 import BinCapacities
from ...packing.yield_search import PackingJob, YieldSearchResult, maximize_min_yield
from ..base import Scheduler
from .priority import sort_by_increasing_priority
from .yield_opt import CarriedLoads, build_allocations, improve_average_yield

__all__ = ["DynMcb8Scheduler"]


class DynMcb8Scheduler(Scheduler):
    """The paper's DYNMCB8 algorithm."""

    name = "dynmcb8"

    def __init__(self) -> None:
        #: The last repack's rounds, ``[search, allocations or None]`` each,
        #: and this repack's successful one.
        self._searches: Dict[Any, list] = {}
        self._round: Optional[list] = None
        self._loads = CarriedLoads()

    def start(self, cluster, start_time: float) -> None:
        super().start(cluster, start_time)
        self._searches, self._round = {}, None
        self._loads = CarriedLoads()

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        return self._repack_all(context, AllocationDecision())

    def _repack_all(
        self, context: SchedulingContext, decision: AllocationDecision
    ) -> AllocationDecision:
        """Repack at the best common yield and share spare CPU — as the
        previous repack did, if its successful round is this one's."""
        placements, yield_value = self.repack(context, list(context.jobs.values()))
        entry = self._round
        if entry is not None and entry[1] is not None:
            allocations = entry[1]
            telemetry = current_telemetry()
            if telemetry is not None:
                telemetry.count("packing.yields_reused")
        else:
            yields = dict.fromkeys(placements, yield_value)
            yields = improve_average_yield(
                placements, yields, context.jobs, context.cluster, self._loads
            )
            allocations = build_allocations(placements, yields, context.current_allocations())
            if entry is not None:
                entry[1] = allocations
        # The memo keeps its own dict, whatever the engine does to this one.
        decision.running = dict(allocations)
        return decision

    def repack(
        self, context: SchedulingContext, candidates: List[JobView]
    ) -> Tuple[Dict[int, Tuple[int, ...]], float]:
        """Pack as many candidate jobs as possible at the best common yield.

        Jobs are evicted in increasing priority order until the packing
        becomes feasible.  Returns the per-job placements and the achieved
        minimum yield.  A round the previous repack searched is reused.
        """
        previous, self._searches, self._round = self._searches, {}, None
        search = partial(self._reused_search, previous)
        result = self._search_evicting(context, candidates, search)
        if result is None:
            return {}, 1.0
        return dict(result.assignments), result.yield_value

    def _reused_search(
        self, previous: Dict[Any, list], jobs: Sequence[PackingJob],
        num_nodes: int, *, capacities: BinCapacities,
    ) -> YieldSearchResult:
        """``maximize_min_yield``, or the previous repack's answer for this job set."""
        job_set = frozenset((j.job_id, j.num_tasks, j.cpu_need, j.mem_requirement) for j in jobs)
        key = (job_set, num_nodes, capacities)
        entry = previous.get(key)
        if entry is None:
            entry = [maximize_min_yield(jobs, num_nodes, capacities=capacities), None]
        else:
            telemetry = current_telemetry()
            if telemetry is not None:
                telemetry.count("packing.searches_reused")
        self._searches[key] = entry
        if entry[0].success:
            self._round = entry
        return entry[0]

    @staticmethod
    def _search_evicting(
        context: SchedulingContext,
        candidates: List[JobView],
        search: Callable[..., Any],
    ) -> Optional[Any]:
        """First successful ``search`` while evicting lowest-priority jobs.

        ``search(jobs, num_nodes, capacities=...)`` is one of the binary
        searches of :mod:`repro.packing.yield_search`.  Rounds whose memory
        footprint provably cannot fit are skipped without packing: the rounds
        are prefixes of one priority order, so their verdicts come from one
        pass.
        """
        # Evict lowest-priority jobs first, so process a mutable list sorted
        # from most to least deserving (we pop from the end).  The flow time
        # is ``context.flow_time(view)``, inlined.
        now = context.time
        packing_jobs = [
            PackingJob(
                view.job_id,
                view.num_tasks,
                view.cpu_need,
                view.mem_requirement,
                now - view.submit_time if now > view.submit_time else 0.0,
                view.virtual_time,
            )
            for view in reversed(sort_by_increasing_priority(candidates, now))
        ]
        num_nodes = context.cluster.num_nodes
        # None on homogeneous, fully-up clusters (the unit-bin fast path);
        # per-node (cpu, mem) capacities otherwise, with down nodes as
        # zero-capacity bins no packing can land on.
        capacities = context.packing_capacities()
        feasible = memory_feasible_prefixes(packing_jobs, num_nodes, capacities=capacities)
        while packing_jobs:
            if feasible[len(packing_jobs)]:
                result = search(packing_jobs, num_nodes, capacities=capacities)
                if result.success:
                    return result
            packing_jobs.pop()
        return None
