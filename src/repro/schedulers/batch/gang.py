"""Idealised gang scheduling baseline (related work, paper §VI).

Gang scheduling time-shares the cluster in synchronized slices: all tasks of
a job execute in the same slice across nodes (the Ousterhout matrix).  The
paper dismisses it because of the synchronisation overhead and the memory
pressure of co-resident jobs, but it is the classical alternative to batch
scheduling and a useful extra comparator, so an *idealised* version is
provided here:

* each task gets a dedicated node within its row of the matrix (one task per
  node per row, like batch scheduling);
* at most ``max_rows`` jobs may share a node (the multiprogramming level);
* co-resident jobs must fit in node memory together — the no-swapping rule of
  the DFRS model is kept, which is charitable to gang scheduling since real
  deployments swap;
* context-switching overhead is ignored (again charitable), so a node shared
  by *k* rows gives each of them a 1/k CPU share; in the fluid-CPU model this
  is a yield of ``min(1, 1/(k * cpu_need))`` … capped at 1, i.e. the job
  progresses at the rate the round-robin slice affords it.

Jobs that cannot be admitted (no row with enough free memory/width) wait in
FCFS order.  The scheduler is non-clairvoyant, like the DFRS algorithms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.allocation import AllocationDecision
from ...core.cluster import Cluster
from ...core.context import JobView, SchedulingContext
from ...exceptions import ConfigurationError
from ..base import Scheduler

__all__ = ["GangScheduler"]


class GangScheduler(Scheduler):
    """Idealised gang scheduling with a bounded multiprogramming level."""

    name = "gang"
    #: Gang scheduling gives every task its own node within a row, so a job
    #: wider than the cluster can never start; let the engine reject it.
    exclusive_node_allocation = True
    #: Gang admission only considers pending jobs, never paused ones.
    resumes_paused_jobs = False

    def __init__(self, max_rows: int = 5) -> None:
        if max_rows < 1:
            raise ConfigurationError(f"max_rows must be >= 1, got {max_rows}")
        self.max_rows = max_rows

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        decision = AllocationDecision()
        cluster = context.cluster

        # Per-node tallies of the currently running (already admitted) jobs.
        rows_per_node = [0] * cluster.num_nodes
        memory_per_node = [0.0] * cluster.num_nodes
        placements: Dict[int, Tuple[int, ...]] = {}
        for view in context.running_jobs():
            assert view.assignment is not None
            placements[view.job_id] = view.assignment
            for node in view.assignment:
                rows_per_node[node] += 1
                memory_per_node[node] += view.mem_requirement

        # Admit waiting jobs in FCFS order when a row can host them.  Down
        # nodes are modelled as hosting a full complement of rows and memory,
        # so no admission ever lands on them.
        for node in sorted(context.down_nodes):
            rows_per_node[node] = self.max_rows
            memory_per_node[node] = cluster.mem_capacity(node)
        pending = sorted(context.pending_jobs(), key=lambda v: (v.submit_time, v.job_id))
        for view in pending:
            nodes = self._admit(view, cluster, rows_per_node, memory_per_node)
            if nodes is None:
                continue
            placements[view.job_id] = tuple(nodes)
            for node in nodes:
                rows_per_node[node] += 1
                memory_per_node[node] += view.mem_requirement

        # Round-robin slices: a node shared by k rows gives each row 1/k of
        # its CPU capacity; a job's yield is its worst per-node share divided
        # by its CPU need (it cannot use more than its need, hence the cap at
        # 1).  On homogeneous clusters every capacity is the literal 1.0, so
        # this is exactly the original 1/max(rows) arithmetic.
        for job_id, nodes in placements.items():
            view = context.jobs[job_id]
            share = min(
                cluster.cpu_capacity(node) / rows_per_node[node]
                for node in nodes
            )
            yield_value = min(1.0, share / view.cpu_need)
            decision.set(job_id, nodes, yield_value)
        return decision

    def _admit(
        self,
        view: JobView,
        cluster: Cluster,
        rows_per_node: List[int],
        memory_per_node: List[float],
    ) -> Optional[List[int]]:
        """Pick one distinct node per task, least-shared nodes first."""
        candidates = [
            node
            for node in range(len(rows_per_node))
            if rows_per_node[node] < self.max_rows
            and memory_per_node[node] + view.mem_requirement
            <= cluster.mem_capacity(node) + 1e-9
        ]
        if len(candidates) < view.num_tasks:
            return None
        candidates.sort(key=lambda node: (rows_per_node[node], node))
        return candidates[: view.num_tasks]
