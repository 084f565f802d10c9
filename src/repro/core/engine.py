"""Discrete-event simulation engine for DFRS and batch scheduling.

The engine owns simulated time, job progress, and the preemption/migration
cost accounting; schedulers are pure policies invoked at every event (job
submission, job completion, or scheduler-requested wake-up).  Between two
events every running job has a constant yield, so progress is integrated
analytically and the next completion time is computed in closed form — the
event queue never needs invalidation.

Complexity contract
-------------------

Resident state is ``O(active jobs)``: specs are admitted lazily, one ahead of
simulated time, and a job leaves every engine table the moment it completes.
Per event, advancing time, detecting completions, snapshotting the jobs for
the scheduler, applying a decision and evicting from a failed node cost
``O((running + named by the decision) · log)`` Python steps, whatever the
backlog; the snapshot adds one C-level copy of the view table.
``run``, ``run_stream`` and the ``online_*`` API are three drivers over one
stepping core (``_begin``/``_step``/``_finalize``).  Five pieces of
incremental state keep the per-event work bounded:

* an **active-job table** (``_active``) holding exactly the arrived,
  not-yet-completed jobs in arrival order, which is the order schedulers
  see them in;
* a **RUNNING-job index** (``_running``), the RUNNING subset of ``_active``,
  updated wherever a job starts, resumes, is preempted, evicted, cancelled
  or completes.  It is ordered by last start, so every walk that *acts* on
  jobs sorts by ``Job.arrival_rank`` first: observers, cost sums and heap
  pushes see jobs in ``_active`` order, as if the whole table were walked;
* a **min-heap of predicted completion times** (``_completion_heap``) with
  *lazy invalidation*: every (re)allocation bumps the job's allocation
  version and pushes a fresh entry; stale entries are discarded when they
  surface at the top of the heap;
* **busy-node reference counts** (``_node_refcount``/``_busy_count``)
  updated at every allocation change, so idle-node-seconds accounting does
  not rebuild a busy-node set per event;
* a **view table** (``_views``) holding the latest :class:`JobView` of every
  active job in ``_active`` order, with its PENDING and PAUSED entries also
  in arrival-ordered tables: a waiting job's view is built when it arrives
  or changes state and reused until its next transition, and only RUNNING
  views are rebuilt per event; beside them the snapshot collects each
  RUNNING job's applied allocation (``Job.allocation``), so a scheduler that
  keeps allocations gets the objects back instead of rebuilding them.

The engine measures only stretch outcomes, the Table II costs, idle
node-seconds and platform energy; utilization, availability and goodput are
derived outside it by the observers each metric collector attaches, in
materialized and streaming runs alike.  Observers hear transitions, not
states: ``_emit`` hands each one :class:`~repro.core.observers.SimEvent` per
transition (vocabulary and payloads in :mod:`repro.core.observers`), and
builds nothing while no observer is attached.  Nodes already down when the
run begins are announced as ``node-down`` right after ``run-start``.

The reference semantics are those of the seed's full-dictionary-scan loop
(removed in PR 12); its outputs across the paper's nine algorithms are frozen
in ``tests/core/golden/engine_reference.json`` and
``tests/core/test_engine_equivalence.py`` holds this loop to them exactly.

Cost accounting rules (paper §IV-A, Table II):

* a job going from RUNNING to unallocated is a **preemption** (memory saved
  to storage); the wall-clock rescheduling penalty is charged when the job is
  later resumed;
* a RUNNING job whose node multiset changes at an event is a **migration**
  (pause/resume through storage within the event); the penalty is charged
  immediately;
* resuming a previously paused job on different nodes is *not* an extra
  migration — the cost was already paid by the preemption (this matches the
  zero migration count of GREEDY-PMTN in Table II);
* schedulers are never told about the penalty and cannot schedule around it.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import SimulationError
from ..obs.telemetry import (
    Telemetry,
    as_telemetry,
    current_telemetry,
    push_telemetry,
)
from ..obs.timing import perf_counter as _perf_counter
from .allocation import AllocationDecision, JobAllocation, validate_decision
from .clock import Clock, SimulatedClock
from .cluster import Cluster
from .context import JobView, SchedulingContext
from .events import Event, EventQueue, EventType
from .job import MINIMUM_YIELD, Job, JobSpec, JobState
from .observers import SimEvent, SimulationObserver
from .penalties import ReschedulingPenaltyModel
from .records import CostSummary, JobRecord, SimulationResult

__all__ = ["Simulator", "SimulationConfig", "EngineLoad"]

_LOGGER = logging.getLogger(__name__)

#: Sort key restoring ``_active`` (arrival) order on jobs taken from the
#: RUNNING index, which holds them in the order they last started.
_ARRIVAL_RANK = attrgetter("arrival_rank")

#: Fills an observer event or a job view from one complete field tuple.
_new_tuple = tuple.__new__

#: The element-type set of a node tuple ``JobAllocation.create`` leaves as is.
_PLAIN_INT = frozenset({int})

#: Hard cap on the number of processed events, as a runaway guard.
_DEFAULT_MAX_EVENTS = 50_000_000


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable knobs of the simulation engine."""

    penalty_model: ReschedulingPenaltyModel = ReschedulingPenaltyModel(0.0)
    #: Abort if more than this many events are processed (runaway guard).
    max_events: int = _DEFAULT_MAX_EVENTS
    #: Record per-invocation scheduler wall-clock times (§V timing study).
    record_scheduler_times: bool = True
    #: Accumulate per-job outcomes into mergeable online statistics
    #: (:class:`repro.metrics.JobMetricsAccumulator`) instead of keeping one
    #: :class:`~repro.core.records.JobRecord` per job: the result carries
    #: ``job_stats`` summaries, ``result.jobs`` stays empty, and result
    #: memory is O(accumulators) instead of O(jobs).  Scheduler timings are
    #: likewise reduced to moments.  Off by default — the default mode is
    #: byte-identical to previous releases.
    streaming_metrics: bool = False
    #: Optional :class:`repro.platform.NodeEventSource` of timed node
    #: failures/repairs.  None (the default) keeps every node up for the
    #: whole run — the original static platform, byte-identical.
    node_events: Optional[Any] = None
    #: What happens to jobs with a task on a failed node: ``"resubmit"``
    #: kills them and requeues them from scratch (progress lost);
    #: ``"migrate"`` checkpoints them exactly like a scheduler preemption
    #: (progress kept, preemption cost charged, resume penalty on restart).
    #: Only read when ``node_events`` is set.
    failure_policy: str = "resubmit"
    #: Ask periodic schedulers to repack immediately when a node fails
    #: instead of waiting for their next tick: events that apply a
    #: ``NODE_DOWN`` build their scheduling context with
    #: ``repack_requested=True``.  Trades migration/preemption churn for
    #: recovery latency; off by default (byte-identical to previous
    #: releases).  Schedulers that ignore ``repack_requested`` are
    #: unaffected.
    repack_on_failure: bool = False
    #: Optional :class:`repro.models.OverheadModel` charged at preemption /
    #: migration / checkpoint / resume instants (seconds land on the job's
    #: ``penalty_remaining`` and in the cost tally).  None (the default) is
    #: the paper's zero-cost convention, byte-identical to previous
    #: releases — a :class:`~repro.models.NoOverheadModel` is demoted to
    #: None by the scenario layer.
    overhead_model: Optional[Any] = None
    #: Optional :class:`repro.models.ExecutionTimeModel` applied once per
    #: job at admission: the job's dedicated work is scaled by the model's
    #: multiplier while scheduler-visible runtime estimates stay at the
    #: nominal trace value.  None (the default) is the trace-exact path,
    #: byte-identical to previous releases.
    execution_time_model: Optional[Any] = None
    #: Node index -> platform node-class name, for overhead models with
    #: per-class parameters.  None on the homogeneous cluster.
    node_class_names: Optional[Tuple[str, ...]] = None
    #: Node index -> ``(busy_watts, idle_watts)`` power draw.  When set, the
    #: engine integrates consumed energy over the run into
    #: ``SimulationResult.energy_joules`` (down nodes draw nothing).  None
    #: (the default) skips the accounting entirely.
    node_power: Optional[Tuple[Tuple[float, float], ...]] = None
    #: Optional telemetry: a live :class:`repro.obs.Telemetry` sink or a
    #: spec dict (``{"type": "stats" | "tracing"}``, see
    #: :func:`repro.obs.telemetry_spec`) from which each engine builds its
    #: own sink.  A service shares its engine's sink, so this field is also
    #: how a :class:`~repro.serve.SchedulerService` is instrumented.  None
    #: (the default) disables all instrumentation — the disabled path is
    #: byte-identical to previous releases and adds only per-event None
    #: checks.  Timings live in the sink, never in results, so results stay
    #: a pure function of the spec (DET103).
    telemetry: Optional[Any] = None


@dataclass(frozen=True)
class EngineLoad:
    """Instantaneous load summary of the engine's resident jobs.

    Consumed by the serving layer's admission policies
    (:mod:`repro.serve.admission`); cheap — one pass over the active table.
    """

    pending_jobs: int
    running_jobs: int
    paused_jobs: int
    #: Total CPU need (summed over tasks) of all resident active jobs.
    total_cpu_need: float
    #: First PENDING job in submission order, if any (the shed victim).
    oldest_pending_job_id: Optional[int] = None

    @property
    def active_jobs(self) -> int:
        return self.pending_jobs + self.running_jobs + self.paused_jobs


class Simulator:
    """Run one scheduling algorithm over one workload on one cluster.

    Parameters
    ----------
    cluster:
        Cluster description.
    scheduler:
        Any object implementing the :class:`repro.schedulers.base.Scheduler`
        protocol (``name``, ``requires_runtime_estimates``, ``start()``,
        ``schedule()``).
    config:
        Engine configuration (penalty model, safety limits).
    observers:
        Optional sequence of observers (objects with an ``on_event`` method,
        see :class:`~repro.core.observers.SimulationObserver`) handed every
        transition the engine makes (used by :mod:`repro.analysis` for
        utilization and trace analyses).
    clock:
        Optional :class:`~repro.core.clock.Clock` pacing the event loop.
        The default :class:`~repro.core.clock.SimulatedClock` waits for
        free, preserving the original discrete-event behaviour exactly; a
        :class:`~repro.core.clock.WallClock` turns ``run``/``run_stream``
        into a real-time (optionally accelerated) replay.  The clock only
        throttles the driver — it never changes which events fire at which
        simulated timestamps, so results are clock-independent.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler,
        config: Optional[SimulationConfig] = None,
        observers: Optional[Sequence[SimulationObserver]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self._clock: Clock = clock if clock is not None else SimulatedClock()
        self._observers: List[SimulationObserver] = list(observers or [])
        #: Resident jobs: admitted (submission queued, or arrived and in
        #: ``_active``) and not yet completed; empty means the run is idle.
        self._jobs: Dict[int, Job] = {}
        self._queue = EventQueue()
        self._costs = CostSummary()
        self._records: List[JobRecord] = []
        # -- streaming-metrics state ---------------------------------------
        #: Online per-job statistics replacing ``_records`` when
        #: ``config.streaming_metrics`` is set (None otherwise).
        self._job_stats = None
        self._scheduler_time_stats = None
        self._scheduler_job_count_stats = None
        if self.config.streaming_metrics:
            from ..metrics import JobMetricsAccumulator, Moments

            self._job_stats = JobMetricsAccumulator()
            self._scheduler_time_stats = Moments()
            self._scheduler_job_count_stats = Moments()
        #: Latest completion instant (streaming metrics makespan baseline).
        self._last_completion = -math.inf
        self._scheduler_times: List[float] = []
        self._scheduler_job_counts: List[int] = []
        self._idle_node_seconds = 0.0
        # -- power/energy accounting ---------------------------------------
        #: Per-node (busy, idle) watts, or None when energy is not tracked.
        self._node_power = self.config.node_power
        if self._node_power is not None and len(self._node_power) != cluster.num_nodes:
            raise SimulationError(
                f"node_power has {len(self._node_power)} entries for a "
                f"{cluster.num_nodes}-node cluster"
            )
        #: Current total draw in watts, updated incrementally at busy/idle/
        #: down transitions; integrated over time in ``_advance_to``.
        self._power_current = 0.0
        self._energy_joules = 0.0
        # -- telemetry ------------------------------------------------------
        #: The live telemetry sink, or None when telemetry is disabled (the
        #: default).  All hot-path instrumentation is guarded by a single
        #: None check per event.
        self._telemetry: Optional[Telemetry] = as_telemetry(self.config.telemetry)
        if self._telemetry is not None and getattr(
            self._telemetry, "flight", None
        ) is not None:
            # A sink with an attached flight recorder turns on the per-job
            # lifecycle log: the observer is ordinary (never consulted by
            # scheduling), so the uninstrumented path is untouched.
            from ..obs.flight import FlightObserver

            self._observers.append(FlightObserver(self._telemetry.flight))
        self._now = 0.0
        # -- O(active) event-loop state ------------------------------------
        #: Arrived, not-yet-completed jobs, keyed by job id, in arrival order.
        self._active: Dict[int, Job] = {}
        #: The RUNNING jobs of ``_active``, keyed by job id, in the order they
        #: last started; walks that act on jobs sort by ``Job.arrival_rank``.
        self._running: Dict[int, Job] = {}
        #: Jobs that have ever entered ``_active`` (the next arrival rank).
        self._arrivals = 0
        #: Whether views carry runtime estimates (batch baselines, §IV-B).
        self._clairvoyant = bool(getattr(scheduler, "requires_runtime_estimates", False))
        #: The latest view of every active job, in ``_active`` order, and its
        #: PENDING and PAUSED entries, in arrival order once the next snapshot
        #: re-sorts the tables listed in ``_unsorted``.
        self._views: Dict[int, JobView] = {}
        self._pending_views: Dict[int, JobView] = {}
        self._paused_views: Dict[int, JobView] = {}
        self._unsorted: List[Dict[int, JobView]] = []
        #: Min-heap of ``(predicted completion, job id, allocation version)``.
        self._completion_heap: List[Tuple[float, int, int]] = []
        #: job id -> allocation version; bumped whenever a change invalidates
        #: the job's queued completion prediction (lazy heap invalidation).
        self._alloc_version: Dict[int, int] = {}
        #: node index -> number of tasks of RUNNING jobs placed on it.
        self._node_refcount: Dict[int, int] = {}
        #: Number of nodes with a non-zero reference count.
        self._busy_count = 0
        # -- intake state --------------------------------------------------
        #: The spec iterator of a ``run``/``run_stream`` run (None once
        #: exhausted, and for the whole of an online run).
        self._stream: Optional[Iterator[JobSpec]] = None
        #: job ids ever admitted (duplicate detection across the stream).
        self._seen_job_ids: set = set()
        #: Submit time of the most recently admitted spec (order enforcement).
        self._last_admitted_submit = -math.inf
        #: Submit time of the first job (makespan baseline).
        self._first_submit = 0.0
        # -- dynamic platform state ----------------------------------------
        #: Nodes currently unavailable (down under the platform failure
        #: trace).  Always empty on static platforms.
        self._down_nodes: set = set()
        #: Jobs evicted by node failures at the event being processed.
        self._evicted_now: List[int] = []
        #: True while the event being processed applied a ``NODE_DOWN``
        #: (drives ``repack_requested`` when ``config.repack_on_failure``).
        self._node_down_now = False
        # -- online-driver state -------------------------------------------
        #: Events processed so far (runaway guard; reset by ``_begin``).
        self._events_processed = 0
        #: Job ids cancelled through :meth:`online_cancel` before their
        #: submission event fired; the event is dropped when it surfaces.
        self._cancelled_pending: set = set()
        #: High-water mark of jobs resident in the engine's tables at once:
        #: O(active jobs) under every driver, never the workload size.
        self.peak_resident_jobs = 0

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The live telemetry sink, or None when telemetry is disabled."""
        return self._telemetry

    @property
    def events_processed(self) -> int:
        """Simulation events processed so far (throughput denominator)."""
        return self._events_processed

    # ------------------------------------------------------------------ run --
    def run(self, specs: Sequence[JobSpec]) -> SimulationResult:
        """Simulate a materialized workload: ``run_stream`` in arrival order.

        The sort is stable and keyed on submit time only, so an already
        arrival-ordered workload runs in exactly the order given.
        """
        return self.run_stream(sorted(specs, key=lambda spec: spec.submit_time))

    def run_stream(self, specs: Iterable[JobSpec]) -> SimulationResult:
        """Simulate a streaming workload with lazy job admission.

        ``specs`` must be arrival-ordered (non-decreasing submit times, the
        :class:`repro.traces.JobSource` contract).  Jobs are admitted from
        the iterator one ahead of simulated time and evicted from every
        engine table on completion, so the resident job count — tracked by
        :attr:`peak_resident_jobs` — stays ``O(active jobs)`` instead of
        ``O(total jobs)``.
        """
        self._stream = iter(specs)
        first = next(self._stream, None)
        if first is None:
            raise SimulationError("cannot simulate an empty workload")
        self._admit_spec(first)
        return self._run_event_loop(first.submit_time)

    def _run_event_loop(self, first_submit: float) -> SimulationResult:
        # Install the sink as the thread's ambient telemetry for the whole
        # run (not per scheduler invocation): ``_invoke_scheduler`` then
        # skips the push/pop pair on every event behind one identity check.
        tel = self._telemetry
        if tel is None:
            return self._run_event_loop_inner(first_submit)
        previous = push_telemetry(tel)
        try:
            return self._run_event_loop_inner(first_submit)
        finally:
            push_telemetry(previous)

    def _run_event_loop_inner(self, first_submit: float) -> SimulationResult:
        self._begin(first_submit)
        while self._jobs:
            next_time = self._next_event_time()
            if math.isinf(next_time):
                stuck = list(self._active)
                raise SimulationError(
                    f"simulation deadlock at t={self._now:.1f}: jobs {stuck} are "
                    "active but no event will ever occur (scheduler left them "
                    "unallocated without requesting a wake-up)"
                )
            # Clock seam: a SimulatedClock returns immediately (the original
            # discrete-event behaviour, byte for byte); a WallClock sleeps
            # until real time reaches the simulated instant.  Either way the
            # event fires at exactly ``next_time`` simulated seconds.
            self._clock.wait_until(next_time)
            self._step(next_time)
        return self._finalize()

    def _begin(self, first_submit: float) -> None:
        """Initialise a run anchored at the first submission instant."""
        self._first_submit = first_submit
        self._now = first_submit
        self._events_processed = 0
        self._clock.start(first_submit)
        self._setup_platform(first_submit)
        if self._node_power is not None:
            # Every up node starts idle; down nodes (from a pre-run slice of
            # the availability trace) draw nothing.
            self._power_current = sum(
                self._node_power[node][1]
                for node in range(self.cluster.num_nodes)
                if node not in self._down_nodes
            )
        self.scheduler.start(self.cluster, first_submit)
        self._emit("run-start", cluster=self.cluster)
        # Nodes the pre-run slice of the availability trace left down are
        # announced once, so observers start from the scheduler's view.
        for node in sorted(self._down_nodes):
            self._emit("node-down", node=node)

    def _step(self, next_time: float) -> None:
        """Process the single simulation event due at ``next_time``."""
        self._events_processed += 1
        if self._events_processed > self.config.max_events:
            raise SimulationError(
                f"exceeded max_events={self.config.max_events}; "
                "the scheduler is probably thrashing"
            )
        tel = self._telemetry
        if tel is None:
            self._advance_to(next_time)
            submitted, completed, is_wakeup = self._collect_triggers(next_time)
        else:
            tel.count("engine.events")
            # One timed window covers clock advance plus trigger collection:
            # per-event instrumentation is budgeted (the throughput bench
            # asserts <=1.10x), so only the phases worth a profile row get
            # their own timer reads.
            t0 = tel.now()
            self._advance_to(next_time)
            submitted, completed, is_wakeup = self._collect_triggers(next_time)
            tel.record_phase("engine.advance", t0, tel.now())
        if not self._jobs:
            return
        decision = self._invoke_scheduler(submitted, completed, is_wakeup)
        if tel is None:
            self._apply_decision(decision)
        else:
            t2 = tel.now()
            self._apply_decision(decision)
            tel.record_phase("engine.apply", t2, tel.now())
        for wakeup in decision.wakeups:
            if wakeup < self._now - 1e-9:
                raise SimulationError(
                    f"scheduler requested a wake-up in the past "
                    f"({wakeup:.1f} < {self._now:.1f})"
                )
            self._queue.push(Event(max(wakeup, self._now), EventType.SCHEDULER_WAKEUP))

    def _finalize(self) -> SimulationResult:
        """Close the run and assemble the results."""
        self._emit("run-end")
        makespan = self._compute_makespan()
        return SimulationResult(
            algorithm=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            cluster=self.cluster,
            jobs=list(self._records),
            costs=self._costs,
            makespan=makespan,
            scheduler_times=list(self._scheduler_times),
            scheduler_job_counts=list(self._scheduler_job_counts),
            idle_node_seconds=self._idle_node_seconds,
            job_stats=self._job_stats,
            scheduler_time_stats=self._scheduler_time_stats,
            scheduler_job_count_stats=self._scheduler_job_count_stats,
            energy_joules=self._energy_joules,
        )

    # -------------------------------------------------------- online driving --
    # The serve layer (:mod:`repro.serve`) drives the engine one event at a
    # time instead of through ``run``/``run_stream``: jobs arrive from live
    # clients, so the set of future submissions is open-ended and the driver
    # — not the engine — decides when to wait and when to step.  The online
    # API reuses ``_begin``/``_step``/``_finalize`` unchanged, so scheduling
    # semantics are identical to the batch paths.

    def online_begin(self, start_time: float) -> None:
        """Start an open-ended online run at simulated ``start_time``.

        Completed jobs are evicted from every table, so resident state stays
        O(active jobs) over an unbounded lifetime.
        """
        self._begin(start_time)

    def online_submit(self, spec: JobSpec) -> None:
        """Admit one job; ``submit_time`` must be non-decreasing and >= now."""
        if spec.submit_time < self._now - 1e-9:
            raise SimulationError(
                f"online submission of job {spec.job_id} at "
                f"{spec.submit_time:.3f} is in the engine's past "
                f"(t={self._now:.3f})"
            )
        self._admit_spec(spec)

    def online_now(self) -> float:
        """Current simulated time of the engine."""
        return self._now

    def online_next_event_time(self) -> float:
        """Simulated instant of the next due event, ``+inf`` when idle.

        Unlike the batch loop, ``+inf`` with active jobs is not a deadlock
        here: a future submission or cancellation can still unblock them, so
        the online driver waits for external input instead of raising.
        """
        if not self._jobs:
            return math.inf
        return self._next_event_time()

    def online_step(self) -> float:
        """Process the next due event; returns its time (``+inf`` if idle).

        The caller is responsible for pacing — with a wall clock, call this
        only once real time has reached the returned instant.
        """
        next_time = self.online_next_event_time()
        if math.isinf(next_time):
            return next_time
        self._step(next_time)
        return next_time

    def online_cancel(self, job_id: int) -> bool:
        """Cancel a not-yet-completed job; True if anything was removed.

        A running victim releases its nodes immediately; a queued submission
        is dropped when its event surfaces (cancelling it again returns
        False).  Observers hear of an arrived job's cancellation as a
        ``cancel`` event; a withdrawn submission was never announced.  A
        scheduler wake-up is queued so freed capacity is redistributed at
        the next step.
        """
        job = self._jobs.get(job_id)
        if job is None:
            return False
        if job_id not in self._active:
            # Submission still queued: mark it; _collect_triggers drops it.
            if job_id in self._cancelled_pending:
                return False
            self._cancelled_pending.add(job_id)
            return True
        vacated = job.assignment or ()  # only a RUNNING job holds nodes
        self._release_nodes(vacated)
        job.state = JobState.COMPLETED
        job.assignment = job.allocation = None
        job.current_yield = 0.0
        self._evict(job_id)
        self._emit("cancel", job.spec, vacated)
        self._queue.push(Event(self._now, EventType.SCHEDULER_WAKEUP))
        return True

    def online_finalize(self) -> SimulationResult:
        """Close the online run and return the results accumulated so far."""
        return self._finalize()

    def load_snapshot(self) -> EngineLoad:
        """Summarize the resident active jobs (admission-control input).

        One pass over the active table — O(active jobs), like the
        scheduler's snapshot and unlike the rest of an event, which follows
        the running set.  The oldest pending job is the first PENDING job
        in arrival order.
        """
        pending = running = paused = 0
        total_cpu_need = 0.0
        oldest_pending: Optional[int] = None
        for job in self._active.values():
            total_cpu_need += job.spec.total_cpu_need
            if job.state is JobState.PENDING:
                pending += 1
                if oldest_pending is None:
                    oldest_pending = job.job_id
            elif job.state is JobState.RUNNING:
                running += 1
            else:
                paused += 1
        return EngineLoad(
            pending_jobs=pending,
            running_jobs=running,
            paused_jobs=paused,
            total_cpu_need=total_cpu_need,
            oldest_pending_job_id=oldest_pending,
        )

    # --------------------------------------------------------- platform setup --
    def _setup_platform(self, first_submit: float) -> None:
        """Queue the platform's node availability events, if any.

        Failure traces are tiny next to job traces (one entry per failure),
        so the whole stream is materialized up front.  Events strictly
        before the first submission are applied as the initial availability
        state instead of being replayed.
        """
        source = self.config.node_events
        if source is None:
            return
        if self.config.failure_policy not in ("resubmit", "migrate"):
            raise SimulationError(
                f"unknown failure_policy {self.config.failure_policy!r} "
                "(expected 'resubmit' or 'migrate')"
            )
        if self.config.failure_policy == "migrate" and not getattr(
            self.scheduler, "resumes_paused_jobs", True
        ):
            raise SimulationError(
                f"failure_policy 'migrate' checkpoints victims as PAUSED "
                f"jobs, but scheduler "
                f"{getattr(self.scheduler, 'name', '?')!r} never resumes "
                "paused jobs (they would starve); use failure_policy "
                "'resubmit' or a pmtn/dynmcb8-family scheduler"
            )
        for event in source.events(self.cluster):
            if event.time < first_submit:
                if event.up:
                    self._down_nodes.discard(event.node)
                else:
                    self._down_nodes.add(event.node)
            else:
                self._queue.push(
                    Event(
                        event.time,
                        EventType.NODE_UP if event.up else EventType.NODE_DOWN,
                        node=event.node,
                    )
                )

    def _apply_node_down(self, node: int) -> None:
        """Mark ``node`` down and evict the jobs running a task on it."""
        if node in self._down_nodes:
            return
        self._down_nodes.add(node)
        self._costs.record_node_failure()
        penalty = self.config.penalty_model
        resubmit = self.config.failure_policy == "resubmit"
        victims = [job for job in self._running.values() if node in job.assignment]
        if len(victims) > 1:
            victims.sort(key=_ARRIVAL_RANK)
        for job in victims:
            del self._running[job.spec.job_id]
            self._release_nodes(job.assignment)
            job.last_assignment = job.assignment
            job.assignment = job.allocation = None
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

    # -------------------------------------------------------- spec admission --
    def _admit_spec(self, spec: JobSpec) -> None:
        """Admit one spec: enforce arrival order and feasibility, create the
        engine-side job state and queue its submission event."""
        if spec.submit_time < self._last_admitted_submit:
            raise SimulationError(
                f"streaming intake requires arrival-ordered specs: job "
                f"{spec.job_id} submitted at {spec.submit_time:.3f} after a "
                f"job submitted at {self._last_admitted_submit:.3f}"
            )
        self._last_admitted_submit = spec.submit_time
        if spec.job_id in self._seen_job_ids:
            raise SimulationError(f"duplicate job id {spec.job_id} in workload")
        self._seen_job_ids.add(spec.job_id)
        if spec.num_tasks > self.cluster.num_nodes and _is_batch(self.scheduler):
            raise SimulationError(
                f"job {spec.job_id} needs {spec.num_tasks} nodes but the "
                f"cluster only has {self.cluster.num_nodes} (batch scheduling "
                "would never start it)"
            )
        if self.cluster.is_heterogeneous and _is_batch(self.scheduler):
            # Batch schedulers place one task per node on *eligible* nodes
            # only (capacity-aware packing); a job wider than the eligible
            # node count would sit at the queue head forever and livelock
            # the run, exactly like the width check above.
            eligible = _eligible_batch_nodes(self.cluster, spec, self.scheduler)
            if spec.num_tasks > eligible:
                raise SimulationError(
                    f"job {spec.job_id} needs {spec.num_tasks} nodes of "
                    f"memory {spec.mem_requirement:g} / cpu {spec.cpu_need:g} "
                    f"but only {eligible} nodes of this platform can host "
                    f"such a task (batch scheduling would never start it)"
                )
        if spec.num_tasks > _max_hostable_tasks(self.cluster, spec.mem_requirement):
            # Without this check the job would wait forever (DFRS backoff
            # retries, batch queue head) and the run would livelock.
            raise SimulationError(
                f"job {spec.job_id} needs {spec.num_tasks} tasks of memory "
                f"{spec.mem_requirement:g} but the platform can host at most "
                f"{_max_hostable_tasks(self.cluster, spec.mem_requirement)} "
                "such tasks even when empty (permanently infeasible)"
            )
        job = Job(spec=spec)
        etm = self.config.execution_time_model
        if etm is not None:
            multiplier = float(etm.execution_multiplier(spec))
            if not math.isfinite(multiplier) or multiplier <= 0:
                raise SimulationError(
                    f"execution-time model returned multiplier {multiplier!r} "
                    f"for job {spec.job_id} (must be finite and > 0)"
                )
            if multiplier != 1.0:
                job.work_scale = multiplier
                job.remaining_work = job.scaled_work()
        self._jobs[spec.job_id] = job
        self._alloc_version[spec.job_id] = 0
        self._queue.push(
            Event(spec.submit_time, EventType.JOB_SUBMISSION, spec.job_id)
        )
        resident = len(self._jobs)
        if resident > self.peak_resident_jobs:
            self.peak_resident_jobs = resident

    def _admit_next_from_stream(self) -> None:
        """Pull the next spec (if any) from the streaming source."""
        if self._stream is None:
            return
        tel = self._telemetry
        if tel is None:
            spec = next(self._stream, None)
        else:
            t0 = tel.now()
            spec = next(self._stream, None)
            tel.record_phase("engine.stream_intake", t0, tel.now())
        if spec is None:
            self._stream = None
            return
        self._admit_spec(spec)

    def _evict(self, job_id: int) -> None:
        """Drop a finished, cancelled or withdrawn job from every per-job
        table, keeping resident state O(active jobs).

        Safe: schedulers only see active jobs, and a stale completion-heap
        entry is discarded on the ``_active`` miss before its version is
        consulted (job ids are never reused, see ``_seen_job_ids``).
        """
        self._active.pop(job_id, None)
        self._running.pop(job_id, None)
        self._views.pop(job_id, None)
        self._pending_views.pop(job_id, None)
        self._paused_views.pop(job_id, None)
        del self._jobs[job_id]
        del self._alloc_version[job_id]

    # ------------------------------------------- busy-node refcount tracking --
    def _acquire_nodes(self, nodes: Tuple[int, ...]) -> None:
        refcount = self._node_refcount
        power = self._node_power
        for node in nodes:
            count = refcount.get(node, 0)
            if count == 0:
                self._busy_count += 1
                if power is not None:
                    self._power_current += power[node][0] - power[node][1]
            refcount[node] = count + 1

    def _release_nodes(self, nodes: Tuple[int, ...]) -> None:
        refcount = self._node_refcount
        power = self._node_power
        for node in nodes:
            count = refcount[node] - 1
            if count == 0:
                self._busy_count -= 1
                if power is not None:
                    self._power_current += power[node][1] - power[node][0]
                del refcount[node]
            else:
                refcount[node] = count

    # ------------------------------------------------ completion-time heap --
    def _note_allocation_change(self, job: Job) -> None:
        """Invalidate the job's queued completion prediction and requeue it.

        Called whenever state/yield/penalty changes alter the predicted
        completion instant, so at every transition: a stopped job's view is
        rebuilt here too.  The stale heap entry is *not* removed here — it
        is skipped lazily when it reaches the top (``_next_event_time``).
        """
        version = self._alloc_version[job.job_id] + 1
        self._alloc_version[job.job_id] = version
        if job.state is JobState.RUNNING:
            self._pending_views.pop(job.job_id, None)
            self._paused_views.pop(job.job_id, None)
            predicted = job.predicted_completion(self._now)
            if math.isfinite(predicted):
                heapq.heappush(self._completion_heap, (predicted, job.job_id, version))
        else:
            self._file_waiting(job)

    def _next_completion_time(self) -> float:
        """Earliest live predicted completion over all RUNNING jobs.

        Stale heap entries (version mismatch, paused/completed jobs) are
        discarded lazily.  Heap keys were computed at allocation time;
        ``Job.advance`` re-derives the same instant with slightly different
        floating-point operations, so keys within rounding noise of the
        minimum are *recomputed from live job state* and the true minimum
        returned — exactly the arithmetic of a full scan over the running
        jobs (the reference semantics), even when two jobs' completions tie
        to within accumulated ulp drift.
        """
        heap = self._completion_heap
        tied: List[Tuple[float, int, int]] = []
        best = math.inf
        first_key: Optional[float] = None
        while heap:
            key, job_id, version = heap[0]
            job = self._active.get(job_id)
            if (
                job is None
                or job.state is not JobState.RUNNING
                or self._alloc_version[job_id] != version
            ):
                heapq.heappop(heap)
                continue
            if first_key is None:
                first_key = key
            elif key > first_key + 1e-9 * max(1.0, abs(first_key)):
                break
            tied.append(heapq.heappop(heap))
            best = min(best, job.predicted_completion(self._now))
        for entry in tied:
            heapq.heappush(heap, entry)
        return best

    # ----------------------------------------------------------- event loop --
    def _next_event_time(self) -> float:
        return min(self._queue.peek_time(), self._next_completion_time())

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
            for job in self._running.values():  # only running jobs progress
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
        finished = [job for job in self._running.values() if job.remaining_work <= 0.0]
        if len(finished) > 1:
            finished.sort(key=_ARRIVAL_RANK)
        for job in finished:
            self._complete_job(job)
            completed.append(job.spec.job_id)
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
                    job = self._active[event.job_id] = self._jobs[event.job_id]
                    self._arrivals += 1
                    job.arrival_rank = self._arrivals
                    self._file_waiting(job)
                    submitted.append(event.job_id)
                    self._emit("submit", job.spec)
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

    def _complete_job(self, job: Job) -> None:
        vacated = job.assignment
        self._release_nodes(vacated)
        job.state = JobState.COMPLETED
        job.completion_time = self._now
        job.assignment = job.allocation = None
        job.current_yield = 0.0
        self._evict(job.job_id)
        self._last_completion = max(self._last_completion, self._now)
        record = JobRecord(
            spec=job.spec,
            first_start_time=(
                job.first_start_time
                if job.first_start_time is not None
                else self._now
            ),
            completion_time=self._now,
            preemptions=job.preemption_count,
            migrations=job.migration_count,
        )
        if self._job_stats is not None:
            # Streaming metrics: fold the outcome into the accumulators and
            # drop the record — result memory stays O(accumulators).
            self._job_stats.observe(
                job_id=record.spec.job_id,
                stretch=record.stretch,
                turnaround=record.turnaround_time,
                wait=record.wait_time,
            )
        else:
            self._records.append(record)
        self._emit("complete", job.spec, vacated)

    # ------------------------------------------------------------ scheduling --
    def _file_waiting(self, job: Job) -> None:
        """Build the view of a job that arrived or stopped (the snapshot's fill
        for RUNNING jobs) and file it in its state's table, marked unsorted if
        it joins out of arrival order."""
        spec = job.spec
        clairvoyant = self._clairvoyant
        view = _new_tuple(JobView, (
            spec.job_id, spec.num_tasks, spec.cpu_need, spec.mem_requirement,
            spec.submit_time, job.state, job.virtual_time, job.assignment,
            job.current_yield, job.last_assignment,
            spec.execution_time if clairvoyant else None,
            job.remaining_work + job.penalty_remaining if clairvoyant else None,
        ))
        table = self._pending_views if job.state is JobState.PENDING else self._paused_views
        if table and self._active[next(reversed(table))].arrival_rank > job.arrival_rank:
            self._unsorted.append(table)
        self._views[spec.job_id] = table[spec.job_id] = view

    def _build_context(
        self, submitted: List[int], completed: List[int], is_wakeup: bool
    ) -> SchedulingContext:
        """Snapshot the active jobs for the scheduler.

        A waiting job's view is the one built at its last transition; only
        RUNNING jobs, whose virtual time moves, get a fresh view, so the
        Python work follows the running set.  Their loop is kept lean: the
        view is filled positionally through ``tuple.__new__`` (no Python
        frame per view; the literal has ``len(JobView._fields)`` items) and
        everything loop-invariant is hoisted.  The same loop collects each
        RUNNING job's applied allocation (``Job.allocation``), which
        ``current_allocations`` hands out instead of rebuilding.  The context
        gets its own copy of the view table, of each partition and of the
        allocations, so one kept by a scheduler or observer reads the same
        after the run moves on.
        """
        clairvoyant = self._clairvoyant
        now = self._now
        new_view = _new_tuple
        latest = self._views
        running: List[JobView] = []
        allocations: Dict[int, JobAllocation] = {}
        jobs: Iterable[Job] = self._running.values()
        if len(self._running) > 1:
            jobs = sorted(jobs, key=_ARRIVAL_RANK)
        for job in jobs:
            spec = job.spec
            job_id = spec.job_id
            latest[job_id] = view = new_view(JobView, (
                job_id, spec.num_tasks, spec.cpu_need, spec.mem_requirement,
                spec.submit_time, job.state, job.virtual_time, job.assignment,
                job.current_yield, job.last_assignment,
                spec.execution_time if clairvoyant else None,
                job.remaining_work + job.penalty_remaining if clairvoyant else None,
            ))
            running.append(view)
            allocations[job_id] = job.allocation  # type: ignore[assignment]  # set while RUNNING
        if self._unsorted:
            for table in self._unsorted:
                entries = sorted(table.items(), key=lambda item: self._jobs[item[0]].arrival_rank)
                table.clear()
                table.update(entries)
            self._unsorted = []
        views = dict(latest)
        context = SchedulingContext(
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
        context._partition = (
            running, list(self._paused_views.values()), list(self._pending_views.values())
        )
        context._allocations = allocations
        return context

    def _invoke_scheduler(
        self, submitted: List[int], completed: List[int], is_wakeup: bool
    ) -> AllocationDecision:
        tel = self._telemetry
        if tel is None:
            context = self._build_context(submitted, completed, is_wakeup)
            start = _perf_counter()
            decision = self.scheduler.schedule(context)
            elapsed = _perf_counter() - start
        else:
            context = self._build_context(submitted, completed, is_wakeup)
            # The sink is the thread's ambient telemetry while scheduling,
            # so packers (``@timed_phase``) and scheduler internals can time
            # themselves without protocol plumbing.  ``_run_event_loop``
            # installs it for whole runs; the online driver (serve layer)
            # reaches here without that wrapper, so push per invocation then.
            if current_telemetry() is tel:
                start = _perf_counter()
                try:
                    decision = self.scheduler.schedule(context)
                finally:
                    elapsed = _perf_counter() - start
            else:
                previous = push_telemetry(tel)
                start = _perf_counter()
                try:
                    decision = self.scheduler.schedule(context)
                finally:
                    elapsed = _perf_counter() - start
                    push_telemetry(previous)
            tel.record_phase("engine.schedule", start, start + elapsed)
            tel.count("engine.scheduler_invocations")
            tel.gauge("engine.active_jobs", float(len(context.jobs)))
        if self.config.record_scheduler_times:
            if self._scheduler_time_stats is not None:
                self._scheduler_time_stats.add(elapsed)
                self._scheduler_job_count_stats.add(len(context.jobs))
            else:
                self._scheduler_times.append(elapsed)
                self._scheduler_job_counts.append(len(context.jobs))
        if decision is None:
            decision = AllocationDecision()
        if not self._keeps_validated_allocations(decision):
            # With down nodes marked in the validation tally, an allocation
            # on a failed node raises the same InfeasibleAllocationError a
            # capacity violation would — schedulers cannot place work on
            # dead nodes.  The views carry the three spec fields the
            # validator reads.
            usage = (
                self.cluster.usage(self._down_nodes) if self._down_nodes else None
            )
            validate_decision(decision, context.jobs, self.cluster, usage=usage)
            if tel is not None:
                tel.count("engine.decisions_validated")
                tasks = sum(len(alloc.nodes) for alloc in decision.running.values())
                tel.count("engine.tasks_tallied", tasks)
        elif tel is not None:
            tel.count("engine.decisions_kept")
        return decision

    def _keeps_validated_allocations(self, decision: AllocationDecision) -> bool:
        """True when ``decision`` only keeps allocations that are live now.

        Validate-on-change: if every entry of ``decision.running`` equals the
        applied ``(assignment, current_yield)`` of a job that is RUNNING
        right now, the decision needs no capacity tally.  The argument is
        monotonicity.  Only ``_apply_decision`` gives a job an allocation,
        and it only ever applies a decision that passed this gate, so the
        allocations live after it are exactly that decision's entries (up to
        task order within a job, which no per-node sum sees).
        Until the next decision the live set can only *shrink* (completion,
        cancellation, eviction from a failed node — which also means no
        RUNNING job has a task on a down node; a repair only adds capacity).
        By induction the live allocations are a sub-multiset of the tasks of
        the last fully tallied decision, and so is any decision that merely
        keeps some of them: per node it sums a subset of non-negative terms
        whose full sum was within capacity, and arities and node ranges were
        checked when the allocations were first admitted.  A subset is summed
        in a different order than the original tally, so the two sums can
        differ by rounding (ulps, ~1e-16 per term); that — not a real
        overcommit — is what ``CAPACITY_EPSILON`` (1e-6) absorbs.

        Anything else — a start, a resume, a migration (even a reordering of
        the same nodes), a yield change, an unknown or non-running job —
        returns False and takes the full ``validate_decision``.
        """
        active = self._active
        for job_id, alloc in decision.running.items():
            job = active.get(job_id)
            if (
                job is None
                or job.state is not JobState.RUNNING
                or alloc.nodes != job.assignment
                or alloc.yield_value != job.current_yield
            ):
                return False
        return True

    def _charge_overhead(self, event: str, job: Job) -> None:
        """Charge the configured overhead model for ``event`` on ``job``.

        The cost lands on ``penalty_remaining`` (wall-clock seconds of zero
        progress, drained first like the paper's resume penalty) and in the
        run's cost tally.  No-op without an overhead model — the default
        path stays byte-identical.
        """
        model = self.config.overhead_model
        if model is None:
            return
        nodes = job.assignment if job.assignment is not None else job.last_assignment
        seconds = model.overhead_seconds(
            event,
            job.spec,
            self.cluster,
            nodes=nodes,
            node_classes=self.config.node_class_names,
        )
        if seconds > 0.0:
            job.penalty_remaining += seconds
            self._costs.record_overhead(seconds)

    def _apply_decision(self, decision: AllocationDecision) -> None:
        penalty = self.config.penalty_model
        running = self._running
        decided = decision.running
        # Only a RUNNING job or one the decision names can be touched; in
        # arrival order these are the jobs, and the order, a walk of the
        # whole active table would act on.
        touched = list(running.values())
        for job_id in decided:
            if job_id not in running:
                job = self._active.get(job_id)
                if job is not None:
                    touched.append(job)
        if len(touched) > 1:
            touched.sort(key=_ARRIVAL_RANK)
        for job in touched:
            job_id = job.spec.job_id
            new_alloc = decided.get(job_id)
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
                    job.assignment = job.allocation = None
                    job.current_yield = 0.0
                    job.state = JobState.PAUSED
                    del running[job_id]
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
                    self._release_nodes(job.assignment)
                    self._acquire_nodes(new_alloc.nodes)
                    job.last_assignment = job.assignment
                    job.assignment = new_alloc.nodes
                    job.current_yield = new_alloc.yield_value
                    job.allocation = _applied(new_alloc)
                    self._note_allocation_change(job)
                    self._emit(
                        "migrate", job.spec, job.assignment, job.current_yield,
                        job.last_assignment,
                    )
                else:
                    # same nodes: only the CPU fraction changes, no overhead
                    # (a reordering keeps the applied node order)
                    old_yield = job.current_yield
                    job.current_yield = new_alloc.yield_value
                    if old_yield != new_alloc.yield_value:
                        if new_alloc.nodes == job.assignment:
                            job.allocation = _applied(new_alloc)
                        else:
                            job.allocation = JobAllocation.create(job.assignment, job.current_yield)
                        self._note_allocation_change(job)
                        self._emit(
                            "yield", job.spec, job.assignment, job.current_yield,
                            old_yield=old_yield,
                        )
            elif job.state is JobState.PENDING:
                if new_alloc is not None:
                    job.state = JobState.RUNNING
                    running[job_id] = job
                    job.assignment = new_alloc.nodes
                    job.current_yield = new_alloc.yield_value
                    job.allocation = _applied(new_alloc)
                    self._acquire_nodes(new_alloc.nodes)
                    self._note_allocation_change(job)
                    if job.first_start_time is None:
                        job.first_start_time = self._now
                    self._emit("start", job.spec, job.assignment, job.current_yield)
            elif job.state is JobState.PAUSED:
                if new_alloc is not None:
                    job.state = JobState.RUNNING
                    running[job_id] = job
                    job.penalty_remaining += penalty.resume_penalty(job.spec)
                    job.assignment = new_alloc.nodes
                    job.current_yield = new_alloc.yield_value
                    job.allocation = _applied(new_alloc)
                    self._acquire_nodes(new_alloc.nodes)
                    self._charge_overhead("resume", job)
                    self._note_allocation_change(job)
                    self._emit("resume", job.spec, job.assignment, job.current_yield)
        self._emit("applied")

    def _emit(
        self,
        kind: str,
        spec: Optional[JobSpec] = None,
        nodes: Tuple[int, ...] = (),
        yield_value: float = 0.0,
        old_nodes: Tuple[int, ...] = (),
        old_yield: float = 0.0,
        node: int = -1,
        cluster: Optional[Cluster] = None,
    ) -> None:
        """Hand every observer one :class:`SimEvent` stamped now.

        The parameters are the event's fields after ``kind``; the tuple is
        filled positionally (``SimEvent``'s generated ``__new__`` costs
        twice as much per event).
        """
        observers = self._observers
        if observers:
            event = _new_tuple(
                SimEvent,
                (kind, self._now, spec, nodes, yield_value, old_nodes, old_yield, node, cluster),
            )
            for observer in observers:
                observer.on_event(event)

    # --------------------------------------------------------------- results --
    def _compute_makespan(self) -> float:
        if self._job_stats is not None:
            if self._job_stats.count == 0:
                return 0.0
            return max(0.0, self._last_completion - self._first_submit)
        if not self._records:
            return 0.0
        last_completion = max(record.completion_time for record in self._records)
        return max(0.0, last_completion - self._first_submit)


def _applied(allocation: JobAllocation) -> JobAllocation:
    """``allocation`` itself when ``JobAllocation.create`` would rebuild an
    equal one (yield already in ``[MINIMUM_YIELD, 1]``, nodes a tuple of
    plain ints); otherwise the clamped, int-cast copy ``create`` builds."""
    nodes = allocation.nodes
    if (
        MINIMUM_YIELD <= allocation.yield_value <= 1.0
        and type(nodes) is tuple
        and set(map(type, nodes)) == _PLAIN_INT
    ):
        return allocation
    return JobAllocation.create(nodes, allocation.yield_value)


def _is_batch(scheduler) -> bool:
    """True for schedulers that allocate whole nodes and never co-locate."""
    return bool(getattr(scheduler, "exclusive_node_allocation", False))


def _eligible_batch_nodes(cluster: Cluster, spec: JobSpec, scheduler) -> int:
    """Nodes of a heterogeneous cluster that can host one task of ``spec``.

    Memory-eligible always; schedulers that give each task a whole node's
    CPU (``allocates_full_cpu``, the FCFS/backfilling family) additionally
    need the node's CPU capacity to cover the task's need at yield 1.0.
    """
    from .cluster import CAPACITY_EPSILON

    need_cpu = bool(getattr(scheduler, "allocates_full_cpu", False))
    count = 0
    for node in range(cluster.num_nodes):
        if cluster.mem_capacity(node) + CAPACITY_EPSILON < spec.mem_requirement:
            continue
        if need_cpu and cluster.cpu_capacity(node) + CAPACITY_EPSILON < spec.cpu_need:
            continue
        count += 1
    return count


def _max_hostable_tasks(cluster: Cluster, mem_requirement: float) -> int:
    """Most tasks of the given memory footprint an *empty* cluster can host.

    A node of memory capacity ``c`` hosts at most ``floor(c / m)`` tasks of
    requirement ``m`` (no swapping).  A job wider than the sum over all
    nodes can never be placed by any scheduler, whatever the yield — on
    homogeneous clusters that only happens for jobs wider than the cluster
    allows, but small-memory node classes make it easy to hit.
    """
    from .cluster import CAPACITY_EPSILON

    if mem_requirement <= 0.0:
        return cluster.num_nodes * 10**9
    if cluster.mem_capacities is None:
        return cluster.num_nodes * int((1.0 + CAPACITY_EPSILON) / mem_requirement)
    return sum(
        int((capacity + CAPACITY_EPSILON) / mem_requirement)
        for capacity in cluster.mem_capacities
    )
