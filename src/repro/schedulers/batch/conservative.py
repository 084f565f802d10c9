"""Conservative backfilling batch scheduler.

EASY (the paper's production-representative baseline) only protects the
*first* queued job with a reservation; all later jobs can be delayed
arbitrarily by backfilled work.  Conservative backfilling — the other
classical variant in the batch-scheduling literature — gives **every** queued
job a reservation and only backfills a job when doing so delays no earlier
reservation.  It is not part of the paper's evaluation; it is provided as an
additional baseline so that the DFRS comparison does not hinge on EASY's
aggressiveness, and it is exercised by the ablation benchmarks.

Like EASY, this scheduler is clairvoyant: it receives perfect runtime
estimates from the simulation engine.

The implementation keeps an aggregate *availability profile* — how many nodes
are free as a function of time, given the running jobs' completion estimates
and the reservations granted so far — and walks the queue in submission
order, granting each job the earliest start time at which enough nodes stay
free for its whole duration.  Jobs whose granted start time is "now" are
started immediately.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ...core.allocation import AllocationDecision
from ...core.context import SchedulingContext
from ...exceptions import SchedulingError
from .fcfs import FcfsScheduler

__all__ = ["ConservativeBackfillingScheduler"]

#: Horizon used to close the availability profile (effectively "forever").
_FAR_FUTURE = 1e15


class _AvailabilityProfile:
    """Piecewise-constant count of free nodes over ``[now, +inf)``.

    The profile is stored as breakpoints ``times[i]`` with free-node counts
    ``counts[i]`` holding on ``[times[i], times[i+1])``; the last count holds
    forever.  Reservations subtract capacity over a finite window.
    """

    def __init__(self, now: float, free_now: int) -> None:
        self.times: List[float] = [now]
        self.counts: List[int] = [free_now]

    def add_release(self, time: float, nodes: int) -> None:
        """Add ``nodes`` freed at ``time`` (a running job completing)."""
        if nodes <= 0:
            return
        index = self._split_at(max(time, self.times[0]))
        for i in range(index, len(self.counts)):
            self.counts[i] += nodes

    def earliest_start(self, num_tasks: int, duration: float) -> Optional[float]:
        """Earliest breakpoint from which ``num_tasks`` nodes stay free for
        ``duration``; None when no breakpoint does.

        The engine rules out jobs wider than the platform, so None means the
        job needs nodes that are down now and cannot be reserved until a
        repair.
        """
        for index, start in enumerate(self.times):
            if self._fits(index, start, num_tasks, duration):
                return start
        return None

    def reserve(self, start: float, num_tasks: int, duration: float) -> None:
        """Subtract ``num_tasks`` nodes over ``[start, start + duration)``."""
        end = start + duration
        first = self._split_at(start)
        last = self._split_at(end)
        for i in range(first, last):
            self.counts[i] -= num_tasks
            if self.counts[i] < 0:
                raise SchedulingError(
                    "conservative backfilling reserved more nodes than available"
                )

    # -- internals --------------------------------------------------------------
    def _fits(self, index: int, start: float, num_tasks: int, duration: float) -> bool:
        end = start + duration
        i = index
        while i < len(self.times) and self.times[i] < end - 1e-9:
            if self.counts[i] < num_tasks:
                return False
            i += 1
        return True

    def _split_at(self, time: float) -> int:
        """Ensure ``time`` is a breakpoint; return its index."""
        if time >= _FAR_FUTURE:
            return len(self.times)
        for index, existing in enumerate(self.times):
            if math.isclose(existing, time, rel_tol=0.0, abs_tol=1e-9):
                return index
            if existing > time:
                self.times.insert(index, time)
                self.counts.insert(index, self.counts[index - 1])
                return index
        self.times.append(time)
        self.counts.append(self.counts[-1])
        return len(self.times) - 1


class ConservativeBackfillingScheduler(FcfsScheduler):
    """Conservative backfilling with perfect runtime estimates."""

    name = "conservative"
    requires_runtime_estimates = True
    exclusive_node_allocation = True

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        decision = AllocationDecision()
        decision.running = self.keep_running(context)
        free = self.free_nodes(context)
        queue = self.waiting_queue(context)
        if not queue:
            return decision

        profile = _AvailabilityProfile(context.time, len(free))
        for view in context.running_jobs():
            assert view.assignment is not None
            remaining = view.remaining_runtime_estimate
            if remaining is None:
                raise SchedulingError(
                    "conservative backfilling requires runtime estimates"
                )
            profile.add_release(context.time + remaining, len(view.assignment))

        for view in queue:
            runtime = view.runtime_estimate
            if runtime is None:
                raise SchedulingError(
                    "conservative backfilling requires runtime estimates"
                )
            start = profile.earliest_start(view.num_tasks, runtime)
            if start is None:
                # Waits for a repair, like the FCFS head; nothing queued
                # behind it is started or reserved at this event.
                break
            profile.reserve(start, view.num_tasks, runtime)
            if start <= context.time + 1e-9:
                # The availability profile is count-based (a documented
                # approximation on heterogeneous platforms): a "start now"
                # grant additionally needs enough *eligible* free nodes for
                # this job's memory/CPU class, else the job waits for the
                # next event.  On homogeneous clusters every free node is
                # eligible and the original behaviour is untouched.
                eligible = self.eligible_nodes(context, view, free)
                if view.num_tasks > len(eligible):
                    continue
                nodes = eligible[: view.num_tasks]
                free = self._take(free, nodes)
                decision.set(view.job_id, nodes, 1.0)
        return decision
