"""The five O(active) engine walks as they stood at 83738ad — test oracle.

Verbatim copies of the parent commit's ``Simulator._advance_to``,
``_collect_triggers``, ``_apply_decision``, ``_apply_node_down`` and
``_build_context`` (plus ``_iter_jobs``, the list copy three of them walked):
every one visits the whole active table on every event and tests each job's
state, and the context partitions its views lazily in ``_by_state``.  The
live engine walks a RUNNING-job index instead and hands the context its
partition; ``test_engine_index_differential.py`` requires that nothing can
tell — same placement log bytes, same result fingerprint, same cost floats,
same observer events in the same order.

:class:`ReferenceWalksSimulator` subclasses the live engine, so the heap, the
refcounts, intake, completion bookkeeping and validation are the live ones;
only the walks are the old ones.  It neither reads nor maintains the live
engine's ``_running`` index or the jobs' ``arrival_rank`` (``_evict``'s pop
of a job that was never indexed is a no-op).  Do not optimise or tidy this
file: being slow and obviously right is its job.  Three edits since it was
copied, nothing else changed:

* ``_advance_to`` lost its busy-node and availability accumulator lines
  when the engine stopped measuring those (observers attached by the metric
  collectors took them over);
* its eleven observer-hook calls became ``self._emit(...)`` events when the
  hooks became one ``on_event``: the eviction's two calls are one
  ``failure-kill`` / ``checkpoint`` carrying ``job.last_assignment``, the
  ``node-down`` moved before ``_apply_node_down`` (it now precedes the
  evictions it causes), and the running-set snapshot built for the
  allocation-applied hook became the payload-free ``applied``;
* ``_build_context`` lost the ``flow_time`` item of each view when
  ``JobView`` dropped that field (schedulers derive it from the context).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.allocation import AllocationDecision
from repro.core.context import JobView, SchedulingContext
from repro.core.engine import Simulator
from repro.core.events import EventType
from repro.core.job import Job, JobState
from repro.exceptions import SimulationError


class ReferenceWalksSimulator(Simulator):
    """``Simulator`` with the parent commit's full-table walks."""

    def _apply_node_down(self, node: int) -> None:
        """Mark ``node`` down and evict the jobs running a task on it."""
        if node in self._down_nodes:
            return
        self._down_nodes.add(node)
        self._costs.record_node_failure()
        penalty = self.config.penalty_model
        resubmit = self.config.failure_policy == "resubmit"
        for job in self._iter_jobs():
            if job.state is not JobState.RUNNING or job.assignment is None:
                continue
            if node not in job.assignment:
                continue
            self._release_nodes(job.assignment)
            job.last_assignment = job.assignment
            job.assignment = None
            job.current_yield = 0.0
            if resubmit:
                # Kill-and-resubmit: all progress is lost, nothing is saved
                # to storage, and the job queues again as if fresh.
                job.state = JobState.PENDING
                job.remaining_work = job.scaled_work()
                job.virtual_time = 0.0
                job.penalty_remaining = 0.0
                self._costs.record_failure_kill()
            else:
                # Checkpoint ("migrate"): exactly a preemption — memory goes
                # to storage, progress is kept, and the resume penalty is
                # charged when a scheduler later restarts the job elsewhere.
                job.state = JobState.PAUSED
                job.preemption_count += 1
                self._costs.record_preemption(
                    penalty.preemption_bytes_gb(job.spec, self.cluster)
                )
                self._charge_overhead("checkpoint", job)
            self._note_allocation_change(job)
            self._evicted_now.append(job.job_id)
            self._emit(
                "failure-kill" if resubmit else "checkpoint",
                job.spec,
                job.last_assignment,
                node=node,
            )
        if self._node_power is not None:
            # Evictions above already moved the node's draw from busy to
            # idle; a down node draws nothing at all.
            self._power_current -= self._node_power[node][1]

    def _iter_jobs(self) -> List[Job]:
        """Snapshot of the active jobs in arrival order (callers may complete
        or cancel jobs while walking it)."""
        return list(self._active.values())

    def _advance_to(self, next_time: float) -> None:
        duration = next_time - self._now
        if duration < -1e-6:
            raise SimulationError(
                f"time went backwards: {self._now:.3f} -> {next_time:.3f}"
            )
        duration = max(0.0, duration)
        if duration > 0.0:
            # Down nodes are neither busy nor idle: they draw no power and
            # host no work, so they drop out of the idle integral.
            idle = self.cluster.num_nodes - self._busy_count - len(self._down_nodes)
            self._idle_node_seconds += idle * duration
            for job in self._active.values():
                if job.state is JobState.RUNNING:  # only running jobs progress
                    job.advance(duration)
            if self._node_power is not None:
                self._energy_joules += self._power_current * duration
        self._now = next_time

    def _collect_triggers(self, now: float):
        submitted: List[int] = []
        completed: List[int] = []
        is_wakeup = False
        self._evicted_now = []
        self._node_down_now = False
        # Completions are detected from job state, not from queued events.
        for job in self._iter_jobs():
            if job.state is JobState.RUNNING and job.remaining_work <= 0.0:
                self._complete_job(job)
                completed.append(job.job_id)
        events = self._queue.pop_until(now)
        while events:
            for event in events:
                if event.event_type is EventType.JOB_SUBMISSION:
                    assert event.job_id is not None
                    if event.job_id in self._cancelled_pending:
                        # Online cancel raced the submission: the job was
                        # withdrawn before it ever arrived, so drop the event
                        # and its tables without invoking the scheduler.
                        self._cancelled_pending.discard(event.job_id)
                        self._evict(event.job_id)
                        continue
                    self._active[event.job_id] = self._jobs[event.job_id]
                    submitted.append(event.job_id)
                    self._emit("submit", self._jobs[event.job_id].spec)
                    # Lazy admission keeps exactly one unarrived spec of the
                    # stream queued; replacing it may queue another event <= now
                    # (same-timestamp submissions), hence the outer loop.
                    self._admit_next_from_stream()
                elif event.event_type is EventType.NODE_DOWN:
                    assert event.node is not None
                    self._emit("node-down", node=event.node)
                    self._apply_node_down(event.node)
                    self._node_down_now = True
                    is_wakeup = True
                elif event.event_type is EventType.NODE_UP:
                    assert event.node is not None
                    if event.node in self._down_nodes:
                        self._down_nodes.discard(event.node)
                        if self._node_power is not None:
                            # A repaired node comes back idle.
                            self._power_current += self._node_power[event.node][1]
                    is_wakeup = True
                    self._emit("node-up", node=event.node)
                elif event.event_type is EventType.SCHEDULER_WAKEUP:
                    is_wakeup = True
            events = self._queue.pop_until(now)
        return submitted, completed, is_wakeup

    def _build_context(
        self, submitted: List[int], completed: List[int], is_wakeup: bool
    ) -> SchedulingContext:
        """Snapshot the active jobs: one fresh immutable view per job.

        O(active) per event, so the loop is kept lean: positional fill of
        the tuple-backed view, everything loop-invariant hoisted.
        """
        clairvoyant = bool(getattr(self.scheduler, "requires_runtime_estimates", False))
        now = self._now
        make_view = JobView._make
        views: Dict[int, JobView] = {}
        for job_id, job in self._active.items():
            spec = job.spec
            views[job_id] = make_view(
                (
                    job_id,
                    spec.num_tasks,
                    spec.cpu_need,
                    spec.mem_requirement,
                    spec.submit_time,
                    job.state,
                    job.virtual_time,
                    job.assignment,
                    job.current_yield,
                    job.last_assignment,
                    spec.execution_time if clairvoyant else None,
                    job.remaining_work + job.penalty_remaining if clairvoyant else None,
                )
            )
        return SchedulingContext(
            time=now,
            cluster=self.cluster,
            jobs=views,
            submitted=[j for j in submitted if j in views],
            completed=completed,
            is_wakeup=is_wakeup,
            down_nodes=frozenset(self._down_nodes),
            evicted=list(self._evicted_now),
            repack_requested=self.config.repack_on_failure and self._node_down_now,
        )

    def _apply_decision(self, decision: AllocationDecision) -> None:
        penalty = self.config.penalty_model
        for job_id, job in self._active.items():
            new_alloc = decision.running.get(job_id)
            if job.state is JobState.RUNNING:
                assert job.assignment is not None
                if new_alloc is None:
                    # preemption: pause the job, memory goes to storage
                    self._costs.record_preemption(
                        penalty.preemption_bytes_gb(job.spec, self.cluster)
                    )
                    job.preemption_count += 1
                    # Charged while the assignment is still live, so
                    # per-node-class models see the nodes the state leaves.
                    self._charge_overhead("preemption", job)
                    self._release_nodes(job.assignment)
                    job.last_assignment = job.assignment
                    job.assignment = None
                    job.current_yield = 0.0
                    job.state = JobState.PAUSED
                    self._note_allocation_change(job)
                    self._emit("preempt", job.spec, job.last_assignment)
                elif (
                    new_alloc.nodes != job.assignment
                    and sorted(new_alloc.nodes) != sorted(job.assignment)
                ):
                    # migration: pause/resume through storage within this event
                    self._costs.record_migration(
                        penalty.migration_bytes_gb(job.spec, self.cluster)
                    )
                    job.migration_count += 1
                    job.penalty_remaining += penalty.migration_penalty(job.spec)
                    self._charge_overhead("migration", job)
                    old_nodes = job.assignment
                    self._release_nodes(old_nodes)
                    self._acquire_nodes(new_alloc.nodes)
                    job.last_assignment = job.assignment
                    job.assignment = new_alloc.nodes
                    job.current_yield = new_alloc.yield_value
                    self._note_allocation_change(job)
                    self._emit(
                        "migrate", job.spec, new_alloc.nodes, new_alloc.yield_value, old_nodes
                    )
                else:
                    # same nodes: only the CPU fraction changes, no overhead
                    old_yield = job.current_yield
                    job.current_yield = new_alloc.yield_value
                    if old_yield != new_alloc.yield_value:
                        self._note_allocation_change(job)
                        self._emit(
                            "yield",
                            job.spec,
                            job.assignment,
                            new_alloc.yield_value,
                            old_yield=old_yield,
                        )
            elif job.state is JobState.PENDING:
                if new_alloc is not None:
                    job.state = JobState.RUNNING
                    job.assignment = new_alloc.nodes
                    job.current_yield = new_alloc.yield_value
                    self._acquire_nodes(new_alloc.nodes)
                    self._note_allocation_change(job)
                    if job.first_start_time is None:
                        job.first_start_time = self._now
                    self._emit("start", job.spec, new_alloc.nodes, new_alloc.yield_value)
            elif job.state is JobState.PAUSED:
                if new_alloc is not None:
                    job.state = JobState.RUNNING
                    job.penalty_remaining += penalty.resume_penalty(job.spec)
                    job.assignment = new_alloc.nodes
                    job.current_yield = new_alloc.yield_value
                    self._acquire_nodes(new_alloc.nodes)
                    self._charge_overhead("resume", job)
                    self._note_allocation_change(job)
                    self._emit("resume", job.spec, new_alloc.nodes, new_alloc.yield_value)
        self._emit("applied")
