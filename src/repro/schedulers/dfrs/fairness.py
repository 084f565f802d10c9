"""Long-job throttling: the fairness extension sketched in the paper's conclusion.

The conclusion of the paper proposes, as future work, "a strategy for
reducing the yield of long running jobs as a way to improve fairness and
further decrease maximum stretch", inspired by multi-level feedback queues in
operating-system schedulers.  This module implements that strategy on top of
DYNMCB8-ASAP-PER:

* jobs whose *virtual time* (subjective execution time) exceeds a threshold
  are considered long-running;
* at every periodic repacking, the yield of long-running jobs is capped
  (default: 0.5) — they keep making progress but stop monopolising CPU;
* the CPU freed by the cap is redistributed to the remaining (short) jobs by
  the usual average-yield improvement heuristic.

Because the cap only kicks in above the threshold, short jobs are never
affected, and the cap never violates node capacities (it only lowers
allocations).  The ``ablation`` benchmark group compares this variant against
plain DYNMCB8-ASAP-PER.
"""

from __future__ import annotations

from typing import Dict

from ...core.allocation import AllocationDecision
from ...core.context import SchedulingContext
from ...core.job import MINIMUM_YIELD
from ...exceptions import ConfigurationError
from .periodic import DEFAULT_PERIOD, DynMcb8AsapPeriodicScheduler
from .yield_opt import build_allocations, improve_average_yield

__all__ = ["LongJobThrottlingScheduler"]


class LongJobThrottlingScheduler(DynMcb8AsapPeriodicScheduler):
    """DYNMCB8-ASAP-PER with a yield cap on long-running jobs."""

    def __init__(
        self,
        period: float = DEFAULT_PERIOD,
        *,
        long_job_virtual_time: float = 4 * 3600.0,
        long_job_yield_cap: float = 0.5,
    ) -> None:
        super().__init__(period)
        if long_job_virtual_time <= 0:
            raise ConfigurationError(
                f"long_job_virtual_time must be > 0, got {long_job_virtual_time}"
            )
        if not (MINIMUM_YIELD <= long_job_yield_cap <= 1.0):
            raise ConfigurationError(
                f"long_job_yield_cap must be in [{MINIMUM_YIELD}, 1], "
                f"got {long_job_yield_cap}"
            )
        self.long_job_virtual_time = long_job_virtual_time
        self.long_job_yield_cap = long_job_yield_cap

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"dynmcb8-asap-throttled-per-{int(self.period)}"

    def _repack_all(
        self, context: SchedulingContext, decision: AllocationDecision
    ) -> AllocationDecision:
        placements, yield_value = self.repack(context, list(context.jobs.values()))
        yields: Dict[int, float] = {}
        for job_id in placements:
            view = context.jobs[job_id]
            value = yield_value
            if view.virtual_time >= self.long_job_virtual_time:
                value = min(value, self.long_job_yield_cap)
            yields[job_id] = max(MINIMUM_YIELD, value)
        # Redistribute leftover CPU with the usual heuristic, but only grant
        # the increases to short jobs; long jobs stay frozen at their cap.
        # Keeping the full placement set in the heuristic call accounts for
        # the capped jobs' CPU usage, and granting a subset of the computed
        # increases can only lower per-node allocations, so feasibility holds.
        short_jobs = {
            job_id
            for job_id in placements
            if context.jobs[job_id].virtual_time < self.long_job_virtual_time
        }
        if short_jobs:
            improved = improve_average_yield(
                placements, yields, context.jobs, context.cluster, self._loads
            )
            for job_id in sorted(short_jobs):
                yields[job_id] = improved[job_id]
        decision.running = build_allocations(placements, yields, context.current_allocations())
        return decision
