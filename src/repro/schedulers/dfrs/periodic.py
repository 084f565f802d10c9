"""Periodic DYNMCB8 variants: DYNMCB8-PER and DYNMCB8-ASAP-PER (§III-B).

DYNMCB8-PER invokes the full MCB8 repacking only every ``period`` seconds
(T = 600 s in the paper); between two scheduling events incoming jobs wait in
a queue and running jobs keep their placements and yields.  This retains most
of the benefit of DYNMCB8 while bounding the preemption/migration churn.

DYNMCB8-ASAP-PER additionally tries to start newly submitted jobs
immediately using the greedy memory-constrained placement; when that
succeeds, the yields of all running jobs are recomputed with the fair-share
rule (placements are untouched, so this costs nothing) — this lets short jobs
run to completion between two scheduling events.

A tick with no arrival, completion or cancel since the previous repack
repacks the same job set, and :meth:`DynMcb8Scheduler.repack` answers it from
the previous repack's yield searches instead of searching again.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...core.allocation import AllocationDecision
from ...core.context import SchedulingContext
from ...exceptions import ConfigurationError
from .dynmcb8 import DynMcb8Scheduler
from .placement import greedy_place_job, usage_from_placements
from .yield_opt import build_allocations, fair_yields, improve_average_yield

__all__ = ["DynMcb8PeriodicScheduler", "DynMcb8AsapPeriodicScheduler", "DEFAULT_PERIOD"]

#: Scheduling period used throughout the paper's experiments (10 minutes).
DEFAULT_PERIOD = 600.0


class DynMcb8PeriodicScheduler(DynMcb8Scheduler):
    """DYNMCB8-PER: full repacking every ``period`` seconds."""

    def __init__(self, period: float = DEFAULT_PERIOD) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        super().__init__()
        self.period = period
        self._next_tick: Optional[float] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"dynmcb8-per-{int(self.period)}"

    def start(self, cluster, start_time: float) -> None:
        super().start(cluster, start_time)
        self._next_tick = None

    # -- periodic machinery -----------------------------------------------
    def _is_tick(self, context: SchedulingContext) -> bool:
        """True when a full repacking must happen at this event."""
        if self._next_tick is None:
            # First event of the run: schedule immediately and start the cycle.
            return True
        if context.repack_requested:
            # Engine-requested immediate repack (``repack_on_failure``): a
            # node just failed, so recover now instead of at the next tick.
            # The periodic cycle restarts from this event (``_arm_next_tick``
            # re-arms at ``time + period``).
            return True
        return context.time + 1e-9 >= self._next_tick

    def _arm_next_tick(self, context: SchedulingContext, decision: AllocationDecision) -> None:
        self._next_tick = context.time + self.period
        decision.request_wakeup(self._next_tick)

    def _between_ticks(
        self, context: SchedulingContext, decision: AllocationDecision
    ) -> AllocationDecision:
        """Decision taken at a non-tick event (keep everything as it is)."""
        decision.running = context.current_allocations()
        return decision

    # -- policy --------------------------------------------------------------
    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        decision = AllocationDecision()
        if self._is_tick(context):
            if not context.jobs:
                # Nothing to schedule: let the periodic cycle go dormant; the
                # next event (necessarily a submission) restarts it.
                self._next_tick = None
                return decision
            self._arm_next_tick(context, decision)
            return self._repack_all(context, decision)
        return self._between_ticks(context, decision)


class DynMcb8AsapPeriodicScheduler(DynMcb8PeriodicScheduler):
    """DYNMCB8-ASAP-PER: periodic repacking plus eager greedy admission."""

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"dynmcb8-asap-per-{int(self.period)}"

    def _between_ticks(
        self, context: SchedulingContext, decision: AllocationDecision
    ) -> AllocationDecision:
        placements: Dict[int, Tuple[int, ...]] = {
            view.job_id: view.assignment  # type: ignore[misc]
            for view in context.running_jobs()
        }
        pending = sorted(
            context.pending_jobs(), key=lambda v: (v.submit_time, v.job_id)
        )
        if not pending:
            decision.running = context.current_allocations()
            return decision

        usage = usage_from_placements(
            placements, context.jobs, context.cluster,
            unavailable=context.down_nodes,
        )
        admitted_any = False
        for view in pending:
            nodes = greedy_place_job(view, usage)
            if nodes is not None:
                placements[view.job_id] = tuple(nodes)
                admitted_any = True
        if not admitted_any:
            decision.running = context.current_allocations()
            return decision

        # Recompute CPU shares for everyone (placements unchanged, so this is
        # free); leftover capacity is redistributed as usual.
        yields = fair_yields(placements, context.jobs, context.cluster)
        yields = improve_average_yield(
            placements, yields, context.jobs, context.cluster, self._loads
        )
        decision.running = build_allocations(
            placements, yields, context.current_allocations()
        )
        return decision
