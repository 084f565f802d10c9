"""FCFS batch scheduling baseline (paper §IV-B).

First-Come-First-Serve with strict queue order: jobs wait in submission order
and the head of the queue starts as soon as enough whole nodes are free (one
node per task, exclusive access, yield 1.0).  No job may overtake the head of
the queue, which is what EASY backfilling later relaxes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Set

from ...core.allocation import AllocationDecision
from ...core.cluster import CAPACITY_EPSILON
from ...core.context import JobView, SchedulingContext
from ..base import Scheduler

__all__ = ["FcfsScheduler"]

#: Submission order with the job id as tie-break (C-level key: the queue is
#: re-sorted at every event, over the whole backlog).
_SUBMISSION_ORDER = attrgetter("submit_time", "job_id")


class FcfsScheduler(Scheduler):
    """First-Come-First-Serve with exclusive whole-node allocations."""

    name = "fcfs"
    exclusive_node_allocation = True
    #: Batch queues only ever start PENDING jobs; checkpointed ("migrate")
    #: failure victims would never be resumed.  EASY and conservative
    #: inherit this.
    resumes_paused_jobs = False
    #: This family runs every task at yield 1.0 on its node, so on a
    #: heterogeneous platform a task can only go to a node with CPU capacity
    #: covering its full need (the engine's admission guard consults this
    #: flag through ``_eligible_batch_nodes``).
    allocates_full_cpu = True

    def free_nodes(self, context: SchedulingContext) -> List[int]:
        """Node indices not used by any running job, in increasing order.

        Nodes currently down under a platform failure trace leave the free
        pool entirely: they can neither be allocated nor counted in the
        backfilling headroom of the EASY/conservative subclasses.
        """
        busy: Set[int] = set()
        for view in context.running_jobs():
            assert view.assignment is not None
            busy.update(view.assignment)
        if context.down_nodes:
            busy.update(context.down_nodes)
        return [node for node in context.cluster.node_ids if node not in busy]

    def waiting_queue(self, context: SchedulingContext) -> List[JobView]:
        """Pending jobs in submission order (batch jobs are never paused)."""
        return sorted(context.pending_jobs(), key=_SUBMISSION_ORDER)

    def keep_running(self, context: SchedulingContext) -> Dict[int, "JobAllocation"]:
        """Running jobs keep their nodes untouched."""
        return context.current_allocations()

    def eligible_nodes(
        self, context: SchedulingContext, view: JobView, nodes: List[int]
    ) -> List[int]:
        """Subset of ``nodes`` that can host one task of ``view``.

        The identity on homogeneous clusters (every node is the reference
        node, so the original arithmetic is untouched).  On a heterogeneous
        platform a batch task needs a node with enough memory capacity and —
        because this family allocates the full CPU (yield 1.0) — enough CPU
        capacity for the task's whole need.
        """
        cluster = context.cluster
        if not cluster.is_heterogeneous:
            return nodes
        return [
            node
            for node in nodes
            if cluster.mem_capacity(node) + CAPACITY_EPSILON
            >= view.mem_requirement
            and cluster.cpu_capacity(node) + CAPACITY_EPSILON >= view.cpu_need
        ]

    @staticmethod
    def _take(free: List[int], nodes: List[int]) -> List[int]:
        """Remove ``nodes`` from ``free`` preserving order."""
        taken = set(nodes)
        return [node for node in free if node not in taken]

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        decision = AllocationDecision()
        decision.running = self.keep_running(context)
        free = self.free_nodes(context)
        for view in self.waiting_queue(context):
            eligible = self.eligible_nodes(context, view, free)
            if view.num_tasks > len(eligible):
                break  # strict FCFS: nobody overtakes the queue head
            nodes = eligible[: view.num_tasks]
            free = self._take(free, nodes)
            decision.set(view.job_id, nodes, 1.0)
        return decision
