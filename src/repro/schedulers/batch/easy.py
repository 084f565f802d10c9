"""EASY backfilling batch scheduler (Lifka 1995; paper §IV-B).

EASY extends FCFS with aggressive backfilling: the first job of the queue
receives a *reservation* for the earliest time at which enough nodes will be
free (computed from the running jobs' completion times), and any other queued
job may start immediately as long as doing so does not delay that
reservation.  A backfilled job is harmless when either

* it will finish before the reservation time (its runtime fits in the gap), or
* it only uses nodes that the reservation does not need (the "extra" nodes).

Following the paper, EASY is given **perfect runtime estimates** — the
simulation engine populates ``runtime_estimate``/``remaining_runtime_estimate``
in the job views because ``requires_runtime_estimates`` is True.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...core.allocation import AllocationDecision
from ...core.context import JobView, SchedulingContext
from ...exceptions import SchedulingError
from .fcfs import FcfsScheduler

__all__ = ["EasyBackfillingScheduler"]


class EasyBackfillingScheduler(FcfsScheduler):
    """EASY backfilling with perfect runtime estimates."""

    name = "easy"
    requires_runtime_estimates = True
    exclusive_node_allocation = True

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        decision = AllocationDecision()
        decision.running = self.keep_running(context)
        free = self.free_nodes(context)
        queue = self.waiting_queue(context)

        # Plain FCFS start while the head of the queue fits.  Jobs started at
        # this very event also occupy nodes and release them later, so they
        # must be part of the reservation computation below.
        started_now: List[Tuple[float, Tuple[int, ...]]] = []
        index = 0
        while index < len(queue):
            view = queue[index]
            eligible = self.eligible_nodes(context, view, free)
            if view.num_tasks > len(eligible):
                break
            nodes = eligible[: view.num_tasks]
            free = self._take(free, nodes)
            decision.set(view.job_id, nodes, 1.0)
            runtime = view.runtime_estimate
            if runtime is None:
                raise SchedulingError(
                    "EASY requires runtime estimates but none were provided"
                )
            started_now.append((context.time + runtime, tuple(nodes)))
            index += 1
        queue = queue[index:]
        if not queue:
            return decision

        # Reservation for the (blocked) head of the queue.  On heterogeneous
        # platforms only nodes able to host a head task count towards its
        # shadow time and extra-node budget.
        head = queue[0]
        head_eligible = set(
            self.eligible_nodes(context, head, list(context.cluster.node_ids))
        )
        free_for_head = len([node for node in free if node in head_eligible])
        reservation = self._reservation(
            context, head, free_for_head, head_eligible, started_now
        )
        if reservation is None:
            # The head is wider than the nodes up now: it waits for a
            # repair, like under FCFS, and nothing overtakes it meanwhile.
            return decision
        shadow_time, extra_nodes = reservation

        # Backfill the remaining jobs in submission order.
        for view in queue[1:]:
            eligible = self.eligible_nodes(context, view, free)
            if view.num_tasks > len(eligible):
                continue
            runtime = view.runtime_estimate
            if runtime is None:
                raise SchedulingError(
                    "EASY requires runtime estimates but none were provided"
                )
            nodes = eligible[: view.num_tasks]
            # Only nodes the head could use eat into the extra-node budget;
            # on homogeneous clusters this is every node (the original
            # count arithmetic, unchanged).
            head_taken = len([node for node in nodes if node in head_eligible])
            finishes_in_time = context.time + runtime <= shadow_time + 1e-9
            uses_only_extra = head_taken <= extra_nodes
            if finishes_in_time or uses_only_extra:
                free = self._take(free, nodes)
                decision.set(view.job_id, nodes, 1.0)
                if not finishes_in_time:
                    extra_nodes -= head_taken
        return decision

    def _reservation(
        self,
        context: SchedulingContext,
        head: JobView,
        free_now: int,
        head_eligible: "set[int]",
        started_now: List[Tuple[float, Tuple[int, ...]]],
    ) -> Optional[Tuple[float, int]]:
        """Shadow time and extra-node count for the blocked queue head.

        The *shadow time* is the earliest instant at which the head job could
        start if nothing is backfilled; the *extra nodes* are the nodes that
        will be free at the shadow time beyond what the head needs — jobs
        small enough to run on the extra nodes may run past the shadow time.
        ``free_now`` and every release count only nodes in ``head_eligible``
        (all of them on a homogeneous cluster).  None when even draining
        every running job frees too few nodes: the admission guard rules out
        jobs wider than the platform, so the head is waiting for a down node
        to be repaired and cannot be reserved yet.
        """
        releases: List[Tuple[float, int]] = [
            (end_time, len([node for node in nodes if node in head_eligible]))
            for end_time, nodes in started_now
        ]
        for view in context.running_jobs():
            assert view.assignment is not None
            remaining = view.remaining_runtime_estimate
            if remaining is None:
                raise SchedulingError(
                    "EASY requires runtime estimates but none were provided"
                )
            releases.append((
                context.time + remaining,
                len([
                    node for node in view.assignment if node in head_eligible
                ]),
            ))
        releases.sort()

        available = free_now
        shadow_time = context.time
        for end_time, released in releases:
            if available >= head.num_tasks:
                break
            available += released
            shadow_time = end_time
        if available < head.num_tasks:
            return None
        extra_nodes = available - head.num_tasks
        return shadow_time, extra_nodes
