"""Scheduler protocol shared by batch and DFRS policies.

A scheduler is a pure policy object: the engine calls :meth:`Scheduler.start`
once before the simulation begins and then :meth:`Scheduler.schedule` at
every event.  The returned :class:`~repro.core.allocation.AllocationDecision`
must list *every* job that should be running after the event — any active job
omitted from the decision is paused (if running) or left waiting.

Class attributes communicate a scheduler's nature to the engine:

* ``requires_runtime_estimates`` — clairvoyant schedulers (the batch
  baselines, §IV-B) receive perfect runtime estimates in their job views;
  DFRS schedulers must leave this False and therefore never see runtimes.
* ``exclusive_node_allocation`` — batch schedulers allocate whole nodes and
  can never start a job wider than the cluster; the engine rejects such
  workloads up front instead of deadlocking.
"""

from __future__ import annotations

import abc

from ..core.allocation import AllocationDecision
from ..core.cluster import Cluster
from ..core.context import SchedulingContext

__all__ = ["Scheduler"]


class Scheduler(abc.ABC):
    """Abstract base class for all scheduling policies."""

    #: Human-readable algorithm name used in results and reports.
    name: str = "scheduler"
    #: True for clairvoyant policies (FCFS/EASY); False for all DFRS policies.
    requires_runtime_estimates: bool = False
    #: True for policies that give each task a dedicated node.
    exclusive_node_allocation: bool = False
    #: True for policies that eventually restart PAUSED jobs (the
    #: pmtn/dynmcb8 families).  Policies that never look at paused jobs set
    #: this False so the engine can reject the platform failure policy
    #: ``"migrate"`` up front — checkpointed victims would starve forever.
    resumes_paused_jobs: bool = True

    def start(self, cluster: Cluster, start_time: float) -> None:
        """Reset internal state before a new simulation run.

        Subclasses overriding this method must call ``super().start(...)``.
        """
        self.cluster = cluster
        self.start_time = start_time

    @abc.abstractmethod
    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        """Return the complete allocation decision for the current event."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
