"""Runtime invariant checking for simulations.

The engine already validates every allocation decision (arity, node range,
memory and CPU capacity).  :class:`InvariantCheckingObserver` adds a second,
independent line of defence used in tests and when developing new schedulers:
it watches the simulation through the observer interface and re-derives the
global invariants from scratch, so a bug in the engine's own bookkeeping (or
in a scheduler that mutates state it should not) is caught as close to its
origin as possible.

Checked invariants:

* **Lifecycle** — a job is submitted exactly once, never starts before its
  submission, never completes before it starts, and is never touched again
  after completing or being cancelled (``on_job_cancelled`` is terminal).
* **Capacity** — at every event, the sum of memory requirements on each node
  stays within the node's memory capacity and the sum of allocated CPU
  fractions stays within its CPU capacity (1.0 × 1.0 on homogeneous
  clusters, the per-node vectors of :mod:`repro.platform` otherwise; both
  with the engine's epsilon).
* **Yield bounds** — every running job's yield lies in ``(0, 1]``.
* **Availability** — no applied allocation holds a task on a node the engine
  reported down (``on_node_down``, which also announces the nodes already
  down when the run begins) and not yet repaired (``on_node_up``).
* **Clock** — observed event times never decrease.

Violations raise :class:`~repro.exceptions.SimulationError` immediately, which
makes the offending event easy to pinpoint under pytest.  A job's spec is
dropped when it completes or is cancelled, so memory is O(active jobs) apart
from the sets of job ids.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..exceptions import SimulationError
from .allocation import JobAllocation
from .cluster import CAPACITY_EPSILON, Cluster
from .job import JobSpec
from .observers import SimulationObserver

__all__ = ["InvariantCheckingObserver"]


class InvariantCheckingObserver(SimulationObserver):
    """Observer that re-derives and enforces global simulation invariants."""

    def __init__(self) -> None:
        self.cluster: Optional[Cluster] = None
        self._specs: Dict[int, JobSpec] = {}
        self._submitted: Set[int] = set()
        self._started: Set[int] = set()
        self._completed: Set[int] = set()
        self._down: Set[int] = set()
        self._last_time = float("-inf")
        #: Number of events whose capacity checks passed (exposed for tests).
        self.checked_events = 0

    # -- lifecycle ---------------------------------------------------------------
    def on_simulation_start(self, cluster: Cluster, start_time: float) -> None:
        self.cluster = cluster
        self._specs = {}
        self._submitted = set()
        self._started = set()
        self._completed = set()
        self._down = set()
        self._last_time = start_time
        self.checked_events = 0

    def _advance_clock(self, time: float) -> None:
        if time < self._last_time - 1e-9:
            raise SimulationError(
                f"observed time went backwards: {self._last_time:.3f} -> {time:.3f}"
            )
        self._last_time = max(self._last_time, time)

    def on_job_submitted(self, time: float, spec: JobSpec) -> None:
        self._advance_clock(time)
        if spec.job_id in self._submitted:
            raise SimulationError(f"job {spec.job_id} submitted twice")
        if time < spec.submit_time - 1e-6:
            raise SimulationError(
                f"job {spec.job_id} submitted at t={time:.3f}, before its "
                f"release time {spec.submit_time:.3f}"
            )
        self._submitted.add(spec.job_id)
        self._specs[spec.job_id] = spec

    def on_job_started(self, time: float, spec: JobSpec, allocation: JobAllocation) -> None:
        self._advance_clock(time)
        self._require_submitted(spec.job_id, "started")
        self._require_not_completed(spec.job_id, "started")
        if len(allocation.nodes) != spec.num_tasks:
            raise SimulationError(
                f"job {spec.job_id} started with {len(allocation.nodes)} tasks "
                f"instead of {spec.num_tasks}"
            )
        self._started.add(spec.job_id)

    def on_job_resumed(self, time: float, spec: JobSpec, allocation: JobAllocation) -> None:
        self._advance_clock(time)
        self._require_submitted(spec.job_id, "resumed")
        self._require_not_completed(spec.job_id, "resumed")

    def on_job_preempted(self, time: float, spec: JobSpec) -> None:
        self._advance_clock(time)
        self._require_submitted(spec.job_id, "preempted")
        self._require_not_completed(spec.job_id, "preempted")

    def on_job_migrated(
        self,
        time: float,
        spec: JobSpec,
        old_nodes: Tuple[int, ...],
        allocation: JobAllocation,
    ) -> None:
        self._advance_clock(time)
        self._require_submitted(spec.job_id, "migrated")
        self._require_not_completed(spec.job_id, "migrated")
        if sorted(old_nodes) == sorted(allocation.nodes):
            raise SimulationError(
                f"job {spec.job_id} reported as migrated onto the same node multiset"
            )

    def on_job_completed(self, time: float, spec: JobSpec) -> None:
        self._advance_clock(time)
        self._require_submitted(spec.job_id, "completed")
        if spec.job_id in self._completed:
            raise SimulationError(f"job {spec.job_id} completed twice")
        if spec.job_id not in self._started:
            raise SimulationError(
                f"job {spec.job_id} completed without ever having started"
            )
        self._completed.add(spec.job_id)
        del self._specs[spec.job_id]

    def on_job_cancelled(self, time: float, spec: JobSpec) -> None:
        # Terminal like a completion, but a cancelled job may never have run.
        self._advance_clock(time)
        self._require_submitted(spec.job_id, "cancelled")
        self._require_not_completed(spec.job_id, "cancelled")
        self._completed.add(spec.job_id)
        del self._specs[spec.job_id]

    def on_node_down(self, time: float, node: int) -> None:
        self._advance_clock(time)
        self._down.add(node)

    def on_node_up(self, time: float, node: int) -> None:
        self._advance_clock(time)
        self._down.discard(node)

    # -- per-event capacity checks -------------------------------------------------
    def on_allocation_applied(self, time: float, running: Dict[int, JobAllocation]) -> None:
        self._advance_clock(time)
        if self.cluster is None:
            raise SimulationError("allocation applied before the simulation started")
        memory = [0.0] * self.cluster.num_nodes
        cpu = [0.0] * self.cluster.num_nodes
        for job_id, allocation in running.items():
            if job_id in self._completed:
                raise SimulationError(
                    f"completed job {job_id} still holds an allocation"
                )
            spec = self._specs.get(job_id)
            if spec is None:
                raise SimulationError(
                    f"running job {job_id} was never observed as submitted"
                )
            if not (0.0 < allocation.yield_value <= 1.0 + 1e-9):
                raise SimulationError(
                    f"job {job_id} runs at an out-of-range yield "
                    f"{allocation.yield_value}"
                )
            for node in allocation.nodes:
                if not (0 <= node < self.cluster.num_nodes):
                    raise SimulationError(
                        f"job {job_id} placed on node {node}, outside the cluster"
                    )
                if node in self._down:
                    raise SimulationError(
                        f"job {job_id} holds a task on down node {node} at t={time:.1f}"
                    )
                memory[node] += spec.mem_requirement
                cpu[node] += spec.cpu_need * allocation.yield_value
        for node in range(self.cluster.num_nodes):
            if memory[node] > self.cluster.mem_capacity(node) + CAPACITY_EPSILON:
                raise SimulationError(
                    f"node {node} memory oversubscribed at t={time:.1f}: "
                    f"{memory[node]:.4f}"
                )
            if cpu[node] > self.cluster.cpu_capacity(node) + CAPACITY_EPSILON:
                raise SimulationError(
                    f"node {node} CPU oversubscribed at t={time:.1f}: {cpu[node]:.4f}"
                )
        self.checked_events += 1

    def on_simulation_end(self, time: float) -> None:
        self._advance_clock(time)
        unfinished = self._submitted - self._completed
        if unfinished:
            raise SimulationError(
                f"simulation ended with unfinished jobs: {sorted(unfinished)}"
            )

    # -- helpers -------------------------------------------------------------------
    def _require_submitted(self, job_id: int, action: str) -> None:
        if job_id not in self._submitted:
            raise SimulationError(f"job {job_id} {action} before being submitted")

    def _require_not_completed(self, job_id: int, action: str) -> None:
        if job_id in self._completed:
            raise SimulationError(f"job {job_id} {action} after completing")
