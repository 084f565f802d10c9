"""Runtime invariant checking for simulations.

The engine already validates every allocation decision (arity, node range,
memory and CPU capacity).  :class:`InvariantCheckingObserver` adds a second,
independent line of defence used in tests and when developing new schedulers:
it derives its own view of the run from the engine's event stream (which
jobs are active, what each running job holds, which nodes are down), checks
every transition against that view, and re-derives the global invariants
from scratch after every applied decision, so a bug in the engine's own
bookkeeping (or in a scheduler that mutates state it should not) is caught
as close to its origin as possible.

Checked invariants:

* **Lifecycle** — a job is submitted exactly once, never starts before its
  submission, never completes before it starts, and is never touched again
  after completing or being cancelled (``cancel`` is terminal).
* **Transitions** — a start or resume takes ``num_tasks`` nodes and names a
  job that is not running (a resume, one that has started before); a
  preempt, migrate, yield, eviction or completion names a running job;
  every closing event vacates exactly the nodes the checker recorded for
  the job, a migrate leaves them and changes the node multiset, and a
  yield change starts from the recorded yield.
* **Capacity** — after every applied decision, the sum of memory
  requirements on each node stays within the node's memory capacity and the
  sum of allocated CPU fractions stays within its CPU capacity (1.0 × 1.0
  on homogeneous clusters, the per-node vectors of :mod:`repro.platform`
  otherwise; both with the engine's epsilon).
* **Yield bounds** — every running job's yield lies in ``(0, 1]``.
* **Availability** — no running job holds a task on a node the engine
  reported down (``node-down``, which also announces the nodes already down
  when the run begins) and not yet repaired (``node-up``).
* **Clock** — observed event times never decrease.

Violations raise :class:`~repro.exceptions.SimulationError` immediately, which
makes the offending event easy to pinpoint under pytest.  A job's spec is
dropped when it completes or is cancelled, so memory is O(active jobs) apart
from the sets of job ids.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..exceptions import SimulationError
from .cluster import CAPACITY_EPSILON, Cluster
from .job import JobSpec
from .observers import SimEvent, SimulationObserver

__all__ = ["InvariantCheckingObserver"]

#: Kinds that act on a job the checker holds as running.
_RUNNING_KINDS = frozenset({"preempt", "checkpoint", "failure-kill", "migrate", "yield", "complete"})


class InvariantCheckingObserver(SimulationObserver):
    """Observer that re-derives and enforces global simulation invariants."""

    def __init__(self) -> None:
        self._reset(None, float("-inf"))

    def _reset(self, cluster: Optional[Cluster], time: float) -> None:
        self.cluster = cluster
        self._specs: Dict[int, JobSpec] = {}
        #: Running job -> (nodes, yield), as the transitions left it.
        self._running: Dict[int, Tuple[Tuple[int, ...], float]] = {}
        self._submitted: Set[int] = set()
        self._started: Set[int] = set()
        self._completed: Set[int] = set()
        self._down: Set[int] = set()
        self._last_time = time
        #: Number of events whose capacity checks passed (exposed for tests).
        self.checked_events = 0

    def on_event(self, event: SimEvent) -> None:
        kind = event.kind
        if kind == "run-start":
            self._reset(event.cluster, event.time)
            return
        time = event.time
        if time < self._last_time - 1e-9:
            raise SimulationError(
                f"observed time went backwards: {self._last_time:.3f} -> {time:.3f}"
            )
        self._last_time = max(self._last_time, time)
        if kind == "applied":
            self._check_capacity(time)
        elif kind == "node-down":
            self._down.add(event.node)
        elif kind == "node-up":
            self._down.discard(event.node)
        elif kind == "run-end":
            unfinished = self._submitted - self._completed
            if unfinished:
                raise SimulationError(
                    f"simulation ended with unfinished jobs: {sorted(unfinished)}"
                )
        elif kind == "submit":
            self._submit(time, event.spec)
        else:
            self._transition(kind, event)

    def _submit(self, time: float, spec: JobSpec) -> None:
        if spec.job_id in self._submitted:
            raise SimulationError(f"job {spec.job_id} submitted twice")
        if time < spec.submit_time - 1e-6:
            raise SimulationError(
                f"job {spec.job_id} submitted at t={time:.3f}, before its "
                f"release time {spec.submit_time:.3f}"
            )
        self._submitted.add(spec.job_id)
        self._specs[spec.job_id] = spec

    def _transition(self, kind: str, event: SimEvent) -> None:
        spec = event.spec
        job_id = spec.job_id
        if job_id not in self._submitted:
            raise SimulationError(f"job {job_id} {kind} before being submitted")
        if job_id in self._completed:
            raise SimulationError(f"job {job_id} {kind} after completing")
        held = self._running.get(job_id)
        if kind in _RUNNING_KINDS and held is None:
            raise SimulationError(f"job {job_id} {kind} while not running")
        if kind == "start" or kind == "resume":
            if held is not None:
                raise SimulationError(f"job {job_id} {kind} while already running")
            if kind == "resume" and job_id not in self._started:
                raise SimulationError(f"job {job_id} resumed without having started")
            self._require_width(kind, spec, event.nodes)
            self._started.add(job_id)
            self._running[job_id] = (event.nodes, event.yield_value)
            return
        if kind == "migrate" or kind == "yield":
            assert held is not None
            old_nodes = event.old_nodes if kind == "migrate" else event.nodes
            if old_nodes != held[0]:
                raise SimulationError(
                    f"job {job_id} {kind} from nodes {old_nodes}, but it held {held[0]}"
                )
            if kind == "yield" and event.old_yield != held[1]:
                raise SimulationError(
                    f"job {job_id} yield changed from {event.old_yield}, but it ran "
                    f"at {held[1]}"
                )
            if kind == "migrate":
                if sorted(event.old_nodes) == sorted(event.nodes):
                    raise SimulationError(
                        f"job {job_id} reported as migrated onto the same node multiset"
                    )
                self._require_width(kind, spec, event.nodes)
            self._running[job_id] = (event.nodes, event.yield_value)
            return
        # A closing kind: it vacates exactly what the job held (nothing, for
        # the cancel of a job that was not running).
        vacated = () if held is None else held[0]
        if event.nodes != vacated:
            raise SimulationError(
                f"job {job_id} {kind} vacated nodes {event.nodes}, but it held {vacated}"
            )
        self._running.pop(job_id, None)
        if kind == "complete" or kind == "cancel":
            self._completed.add(job_id)
            del self._specs[job_id]

    @staticmethod
    def _require_width(kind: str, spec: JobSpec, nodes: Tuple[int, ...]) -> None:
        if len(nodes or ()) != spec.num_tasks:
            raise SimulationError(
                f"job {spec.job_id} {kind} with {len(nodes or ())} tasks "
                f"instead of {spec.num_tasks}"
            )

    # -- per-decision capacity checks ----------------------------------------------
    def _check_capacity(self, time: float) -> None:
        if self.cluster is None:
            raise SimulationError("allocation applied before the simulation started")
        memory = [0.0] * self.cluster.num_nodes
        cpu = [0.0] * self.cluster.num_nodes
        for job_id, (nodes, yield_value) in self._running.items():
            spec = self._specs[job_id]
            if not (0.0 < yield_value <= 1.0 + 1e-9):
                raise SimulationError(
                    f"job {job_id} runs at an out-of-range yield {yield_value}"
                )
            for node in nodes:
                if not (0 <= node < self.cluster.num_nodes):
                    raise SimulationError(
                        f"job {job_id} placed on node {node}, outside the cluster"
                    )
                if node in self._down:
                    raise SimulationError(
                        f"job {job_id} holds a task on down node {node} at t={time:.1f}"
                    )
                memory[node] += spec.mem_requirement
                cpu[node] += spec.cpu_need * yield_value
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
