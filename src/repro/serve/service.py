"""`SchedulerService` — the scheduler core as an online service.

One service instance wraps one :class:`~repro.core.engine.Simulator` and
drives it in one of two modes:

* **replay** (:meth:`SchedulerService.replay`) — synchronously replay a
  :class:`repro.traces.JobSource` through the engine's streaming intake,
  paced by a :class:`~repro.core.clock.Clock`.  With the default
  ``accept-all`` admission policy the spec stream reaching the engine is
  exactly the source stream, so placement decisions are **byte-identical**
  to ``Simulator.run_stream`` at any acceleration (pinned by
  ``tests/serve/test_replay_determinism.py``).  This is the load-test path.
* **live** (:meth:`SchedulerService.start` + ``submit``/``status``/
  ``cancel``) — an asyncio driver steps the engine event by event while
  submissions arrive concurrently from clients (in-process callers or the
  JSON-lines socket front end in :mod:`repro.serve.protocol`).  Simulated
  time is stamped from the service clock, so the engine never sees time go
  backwards.

Either way the engine, schedulers, and platform are untouched: the service
is *one more driver* of the same core that ``run``/``run_stream`` drive.
Admission control (:mod:`repro.serve.admission`) sits in front of the
engine; queue-latency and throughput metrics accumulate into
:mod:`repro.metrics` accumulators and are exported as mergeable bundles.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Set, Union

from ..core.clock import Clock, SimulatedClock, WallClock
from ..core.cluster import Cluster
from ..core.engine import SimulationConfig, Simulator
from ..core.job import JobSpec
from ..core.observers import SimEvent, SimulationObserver
from ..core.records import SimulationResult
from ..exceptions import ConfigurationError, ReproError, SimulationError
from ..metrics import Moments, QuantileSketch, SumAccumulator
from ..metrics.accumulators import Accumulator
from ..metrics.jobs import bundle_to_dict
from ..obs.prometheus import render_prometheus
from ..obs.telemetry import Telemetry, as_telemetry
from ..schedulers.registry import create_scheduler
from ..traces.source import JobSource
from .admission import (
    AcceptAllPolicy,
    AdmissionPolicy,
    ServiceLoad,
    admission_policy_from_dict,
)

__all__ = [
    "SchedulerService",
    "ServiceMetrics",
    "ServiceJobRecord",
    "ReplayReport",
]

#: Terminal ledger states kept for ``status`` queries until trimmed.
_TERMINAL_STATES = ("completed", "cancelled", "rejected", "shed")

#: Terminal job records kept for ``status`` queries (live mode); the oldest
#: are forgotten beyond this, keeping service memory bounded.
_LEDGER_LIMIT = 10_000


@dataclass
class ServiceJobRecord:
    """What the service remembers about one submitted job."""

    job_id: int
    submit_time: float
    #: ``pending`` → ``running`` (→ ``paused`` → ``running``, or back to
    #: ``pending`` when a node failure kills it) → ``completed``, or
    #: terminal ``rejected`` / ``cancelled`` / ``shed``.
    state: str = "pending"
    #: Admission reason for rejected/shed jobs (``queue-full``, …).
    reason: str = ""
    first_start_time: Optional[float] = None
    completion_time: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "submit_time": self.submit_time,
            "state": self.state,
            "reason": self.reason,
            "first_start_time": self.first_start_time,
            "completion_time": self.completion_time,
        }


class ServiceMetrics:
    """Live service counters plus mergeable latency accumulators.

    Queue latency (submission → first placement) goes into a
    :class:`~repro.metrics.QuantileSketch` (at the default accuracy) and
    :class:`~repro.metrics.Moments` pair; everything else is exact counters.  :meth:`bundle` exports the
    whole thing as a named accumulator bundle — the same shape streaming
    campaigns ship across the worker pool — so snapshots from several
    services merge associatively.
    """

    def __init__(self, slo_factor: float = 10.0) -> None:
        if not math.isfinite(slo_factor) or slo_factor <= 0.0:
            raise ConfigurationError(
                f"slo_factor must be positive and finite, got {slo_factor!r}"
            )
        self.slo_factor = slo_factor
        self.queue_latency = QuantileSketch()
        self.queue_latency_moments = Moments()
        #: JCT (submission → completion) sketch/moments pair, mirroring the
        #: queue-latency pair; fed by every completion.
        self.jct = QuantileSketch()
        self.jct_moments = Moments()
        self.slo_attained = 0
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self.shed = 0
        self.cancelled = 0
        self.starts = 0
        self.resumes = 0
        self.migrations = 0
        self.preemptions = 0
        self.completions = 0

    @property
    def placements(self) -> int:
        """Placement actions applied: job starts, resumes, and migrations."""
        return self.starts + self.resumes + self.migrations

    def observe_queue_latency(self, latency: float) -> None:
        self.queue_latency.add(latency)
        self.queue_latency_moments.add(latency)

    def observe_jct(self, jct: float, nominal_runtime: float) -> None:
        """Record one completion: JCT plus its SLO verdict.

        The job attains its SLO iff it completed within ``slo_factor`` ×
        its nominal runtime of submission — the same deadline convention as
        the ``slo`` campaign collector (:mod:`repro.obs.slo`).
        """
        self.jct.add(jct)
        self.jct_moments.add(jct)
        if jct <= self.slo_factor * nominal_runtime:
            self.slo_attained += 1

    def bundle(self) -> Dict[str, Accumulator]:
        """Mergeable accumulator bundle of the current state."""
        return {
            "queue_latency": self.queue_latency,
            "queue_latency_moments": self.queue_latency_moments,
            "jct": self.jct,
            "jct_moments": self.jct_moments,
            "slo_attained": SumAccumulator(
                total=float(self.slo_attained), n=self.slo_attained
            ),
            "submitted": SumAccumulator(total=float(self.submitted), n=self.submitted),
            "accepted": SumAccumulator(total=float(self.accepted), n=self.accepted),
            "rejected": SumAccumulator(total=float(self.rejected), n=self.rejected),
            "shed": SumAccumulator(total=float(self.shed), n=self.shed),
            "cancelled": SumAccumulator(total=float(self.cancelled), n=self.cancelled),
            "placements": SumAccumulator(
                total=float(self.placements), n=self.placements
            ),
            "completions": SumAccumulator(
                total=float(self.completions), n=self.completions
            ),
        }

    def snapshot(self, sim_time: float, wall_seconds: float) -> Dict[str, Any]:
        """JSON-ready snapshot (the live metrics endpoint's payload)."""
        latency: Dict[str, float] = {}
        if self.queue_latency.count > 0:
            latency = {
                "p50": self.queue_latency.quantile(0.50),
                "p90": self.queue_latency.quantile(0.90),
                "p99": self.queue_latency.quantile(0.99),
                "mean": self.queue_latency_moments.mean,
                "max": self.queue_latency_moments.maximum,
            }
        jct: Dict[str, float] = {}
        if self.jct.count > 0:
            jct = {
                "p50": self.jct.quantile(0.50),
                "p90": self.jct.quantile(0.90),
                "p99": self.jct.quantile(0.99),
                "mean": self.jct_moments.mean,
                "max": self.jct_moments.maximum,
            }
        placements = self.placements
        return {
            "sim_time": sim_time,
            "wall_seconds": wall_seconds,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "cancelled": self.cancelled,
            "starts": self.starts,
            "resumes": self.resumes,
            "migrations": self.migrations,
            "preemptions": self.preemptions,
            "completions": self.completions,
            "placements": placements,
            "placements_per_wall_sec": (
                placements / wall_seconds if wall_seconds > 0.0 else 0.0
            ),
            "queue_latency": latency,
            "jct": jct,
            "slo_factor": self.slo_factor,
            "slo_total": self.completions,
            "slo_attained": self.slo_attained,
            "slo_attainment": (
                self.slo_attained / self.completions if self.completions else 1.0
            ),
            "bundle": bundle_to_dict(self.bundle()),
        }


class _ServiceObserver(SimulationObserver):
    """Folds engine lifecycle events into the service metrics and ledger.

    A preemption is a scheduler ``preempt`` or a ``checkpoint`` eviction,
    exactly the engine's ``preemption_count``; a ``failure-kill`` requeues
    the job (ledger state ``pending``) and its restart is counted as a
    start but not sampled again for queue latency, which is measured once
    per job, at its first start.
    """

    def __init__(
        self,
        metrics: ServiceMetrics,
        ledger: Optional[Dict[int, ServiceJobRecord]] = None,
        on_terminal: Optional[Any] = None,
    ) -> None:
        self._metrics = metrics
        self._ledger = ledger
        self._on_terminal = on_terminal
        #: Failure-killed jobs whose restart is not a first start.
        self._killed: Set[int] = set()

    def on_event(self, event: SimEvent) -> None:
        kind = event.kind
        state = _LEDGER_STATES.get(kind)
        if state is None:
            if kind == "cancel":  # the service books the cancel itself
                self._killed.discard(event.spec.job_id)
            return
        metrics = self._metrics
        job_id = event.spec.job_id
        if kind == "start":
            metrics.starts += 1
            if job_id in self._killed:
                self._killed.discard(job_id)
            else:
                metrics.observe_queue_latency(max(0.0, event.time - event.spec.submit_time))
        elif kind == "resume":
            metrics.resumes += 1
        elif kind == "migrate":
            metrics.migrations += 1
        elif kind == "preempt" or kind == "checkpoint":
            metrics.preemptions += 1
        elif kind == "failure-kill":
            self._killed.add(job_id)
        else:  # complete
            metrics.completions += 1
            metrics.observe_jct(
                max(0.0, event.time - event.spec.submit_time), event.spec.execution_time
            )
        record = None if self._ledger is None else self._ledger.get(job_id)
        if record is not None:
            record.state = state
            if kind == "start" and record.first_start_time is None:
                record.first_start_time = event.time
            elif kind == "complete":
                record.completion_time = event.time
        if kind == "complete" and self._on_terminal is not None:
            self._on_terminal(job_id)


#: Ledger state each job event leaves behind.
_LEDGER_STATES = {
    "start": "running",
    "resume": "running",
    "migrate": "running",
    "preempt": "paused",
    "checkpoint": "paused",
    "failure-kill": "pending",
    "complete": "completed",
}


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one :meth:`SchedulerService.replay` load-test run."""

    algorithm: str
    clock: str
    acceleration: Optional[float]
    #: Jobs offered by the source, and their admission outcomes.
    submitted: int
    accepted: int
    rejected: int
    shed: int
    #: Placement actions applied (starts + resumes + migrations).
    placements: int
    completions: int
    #: Simulated span of the run (result makespan).
    sim_seconds: float
    #: Real time the replay took.
    wall_seconds: float
    placements_per_wall_sec: float
    queue_latency: Dict[str, float] = field(default_factory=dict)
    #: JCT (submission → completion) quantiles, same shape as queue_latency.
    jct: Dict[str, float] = field(default_factory=dict)
    #: SLO attainment over completions (deadline = slo_factor × runtime).
    slo_factor: float = 10.0
    slo_attained: int = 0
    slo_attainment: float = 1.0
    #: Final Prometheus text page, when the service ran with telemetry
    #: enabled (``repro-dfrs loadtest --prom-out`` writes this to disk).
    prometheus: Optional[str] = None
    #: Full engine results (records or streamed stats, costs, makespan).
    result: Optional[SimulationResult] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (what ``repro-dfrs loadtest`` prints)."""
        return {
            "algorithm": self.algorithm,
            "clock": self.clock,
            "acceleration": self.acceleration,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "placements": self.placements,
            "completions": self.completions,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
            "placements_per_wall_sec": self.placements_per_wall_sec,
            "queue_latency": dict(self.queue_latency),
            "jct": dict(self.jct),
            "slo_factor": self.slo_factor,
            "slo_attained": self.slo_attained,
            "slo_attainment": self.slo_attainment,
        }


class SchedulerService:
    """One scheduler + one platform, driven as an online service.

    Parameters
    ----------
    cluster:
        The platform to schedule onto.
    scheduler:
        A scheduler instance, or an algorithm name resolved through
        :func:`repro.schedulers.create_scheduler` (``"dynmcb8-asap-per-600"``).
    config:
        Engine configuration; defaults to :class:`SimulationConfig`'s
        defaults.  Its ``telemetry`` field (a live
        :class:`~repro.obs.telemetry.Telemetry` sink or a spec dict such as
        ``{"type": "stats"}``) instruments the service: the service shares
        the sink with its engine, so ``prometheus_text()`` and the
        ``metrics-prom`` protocol op expose engine phase timings alongside
        the service counters.
    admission:
        An :class:`~repro.serve.admission.AdmissionPolicy`, its spec
        dictionary, or None for ``accept-all``.
    slo_factor:
        SLO deadline multiplier: a job attains its SLO iff it completes
        within ``slo_factor`` × its nominal runtime of submission (drives
        the ``slo_*`` snapshot fields and Prometheus series).
    observers:
        Extra :class:`~repro.core.observers.SimulationObserver` instances
        attached to the engine (e.g. a
        :class:`~repro.serve.loadtest.PlacementLogObserver`).

    A service instance runs once: either one :meth:`replay` or one
    :meth:`start` … :meth:`shutdown` live session.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Any,
        *,
        config: Optional[SimulationConfig] = None,
        admission: Optional[Union[AdmissionPolicy, Mapping[str, Any]]] = None,
        slo_factor: float = 10.0,
        observers: Optional[List[SimulationObserver]] = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = (
            create_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.config = config or SimulationConfig()
        self.telemetry: Optional[Telemetry] = as_telemetry(self.config.telemetry)
        if self.telemetry is not None:
            # Share one live sink between the service and its engine so a
            # single Prometheus page covers both layers.
            self.config = replace(self.config, telemetry=self.telemetry)
        if isinstance(admission, AdmissionPolicy):
            self.admission: AdmissionPolicy = admission
        elif admission is None:
            self.admission = AcceptAllPolicy()
        else:
            self.admission = admission_policy_from_dict(admission)
        self.metrics = ServiceMetrics(slo_factor=slo_factor)
        self._extra_observers: List[SimulationObserver] = list(observers or [])
        self._ledger: Dict[int, ServiceJobRecord] = {}
        self._terminal_order: Deque[int] = deque()
        self._total_cpu_capacity = sum(
            cluster.cpu_capacity(node) for node in range(cluster.num_nodes)
        )
        #: "idle" → "replaying" | "live" → "closed"; one run per instance.
        self._state = "idle"
        self._engine: Optional[Simulator] = None
        self._clock: Clock = SimulatedClock()
        self._wall_anchor: Optional[float] = None
        # Live-mode asyncio machinery (created by ``start``).
        self._wake: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._driver: Optional["asyncio.Task[None]"] = None
        self._stopping = False
        self._next_job_id = 0
        self._last_submit_time = -math.inf

    # ------------------------------------------------------------ shared bits --
    def _service_load(self, submit_time: float) -> ServiceLoad:
        assert self._engine is not None
        snapshot = self._engine.load_snapshot()
        return ServiceLoad(
            time=submit_time,
            pending_jobs=snapshot.pending_jobs,
            running_jobs=snapshot.running_jobs,
            active_jobs=snapshot.active_jobs,
            offered_cpu_load=(
                snapshot.total_cpu_need / self._total_cpu_capacity
                if self._total_cpu_capacity > 0.0
                else 0.0
            ),
            oldest_pending_job_id=snapshot.oldest_pending_job_id,
        )

    def _note_terminal(self, job_id: int) -> None:
        """Trim the ledger so long-lived services keep bounded memory."""
        if job_id not in self._ledger:
            return
        self._terminal_order.append(job_id)
        while len(self._terminal_order) > _LEDGER_LIMIT:
            oldest = self._terminal_order.popleft()
            self._ledger.pop(oldest, None)

    def _shed(self, job_ids: Any, reason: str) -> None:
        assert self._engine is not None
        for victim in job_ids:
            if self._engine.online_cancel(victim):
                self.metrics.shed += 1
                record = self._ledger.get(victim)
                if record is not None:
                    record.state = "shed"
                    record.reason = reason
                    self._note_terminal(victim)

    def wall_seconds(self) -> float:
        """Real seconds since the run started (0.0 before it starts)."""
        if self._wall_anchor is None:
            return 0.0
        return time.perf_counter() - self._wall_anchor

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Current metrics as a JSON-ready dictionary.

        With telemetry enabled the snapshot grows a ``"telemetry"`` summary
        (engine phase timings, counters, gauges); uninstrumented services
        emit exactly the historical payload.
        """
        sim_time = self._engine.online_now() if self._engine is not None else 0.0
        snapshot = self.metrics.snapshot(sim_time, self.wall_seconds())
        # Instantaneous backlog: what an operator's queue-depth ceiling (the
        # soak harness's included) watches.
        snapshot["queue_depth"] = (
            self._engine.load_snapshot().pending_jobs
            if self._engine is not None
            else 0
        )
        if self.telemetry is not None:
            snapshot["telemetry"] = self.telemetry.summary()
        return snapshot

    def prometheus_text(self) -> str:
        """Current metrics in Prometheus text exposition format (0.0.4).

        Service counters and queue-latency quantiles become
        ``repro_serve_*`` samples; when telemetry is enabled, engine phase
        timings and counters are appended as ``repro_telemetry_*`` samples.
        Served over the JSON-lines protocol as the ``metrics-prom`` op.
        """
        # Render from the full snapshot (not the bare metrics one) so the
        # derived gauges — queue_depth above all — appear in the page too.
        return render_prometheus(self.metrics_snapshot(), telemetry=self.telemetry)

    # ---------------------------------------------------------------- replay --
    def replay(
        self,
        source: JobSource,
        *,
        acceleration: Optional[float] = None,
        keep_result: bool = True,
    ) -> ReplayReport:
        """Replay a trace through the service and report throughput.

        ``acceleration`` of ``None`` replays as fast as the CPU allows (a
        :class:`SimulatedClock` — the max-throughput load test); a number is
        simulated seconds per wall second under a :class:`WallClock`
        (``1.0`` = real time).  Admission filters the stream *before* the
        engine sees it; with ``accept-all`` the engine consumes exactly the
        source stream, so placements are byte-identical to ``run_stream``.
        """
        if self._state != "idle":
            raise ReproError(f"service already used (state={self._state!r})")
        self._state = "replaying"
        self._clock = (
            SimulatedClock() if acceleration is None else WallClock(acceleration)
        )
        observer = _ServiceObserver(self.metrics, ledger=None)
        self._engine = Simulator(
            self.cluster,
            self.scheduler,
            self.config,
            observers=[observer] + self._extra_observers,
            clock=self._clock,
        )
        self.admission.reset()
        self._wall_anchor = time.perf_counter()
        try:
            result = self._engine.run_stream(self._admission_filtered(source))
        finally:
            wall = self.wall_seconds()
            self._state = "closed"
        snapshot = self.metrics.snapshot(result.makespan, wall)
        return ReplayReport(
            algorithm=result.algorithm,
            clock=self._clock.kind,
            acceleration=acceleration,
            submitted=self.metrics.submitted,
            accepted=self.metrics.accepted,
            rejected=self.metrics.rejected,
            shed=self.metrics.shed,
            placements=self.metrics.placements,
            completions=self.metrics.completions,
            sim_seconds=float(result.makespan),
            wall_seconds=wall,
            placements_per_wall_sec=float(snapshot["placements_per_wall_sec"]),
            queue_latency=dict(snapshot["queue_latency"]),
            jct=dict(snapshot["jct"]),
            slo_factor=float(snapshot["slo_factor"]),
            slo_attained=int(snapshot["slo_attained"]),
            slo_attainment=float(snapshot["slo_attainment"]),
            prometheus=(
                render_prometheus(snapshot, telemetry=self.telemetry)
                if self.telemetry is not None
                else None
            ),
            result=result if keep_result else None,
        )

    def _admission_filtered(self, source: JobSource) -> Any:
        """Generator applying the admission policy to the source stream.

        The engine pulls this lazily (one spec ahead of simulated time), so
        each decision sees the engine load as of the previous arrival — the
        intake-time decision point.  ``load.time`` is the spec's submission
        instant, keeping stateful policies (token bucket) deterministic.
        """
        engine = self._engine
        assert engine is not None
        for spec in source.jobs(self.cluster):
            self.metrics.submitted += 1
            decision = self.admission.admit(spec, self._service_load(spec.submit_time))
            if not decision.accepted:
                self.metrics.rejected += 1
                continue
            if decision.shed_job_ids:
                self._shed(decision.shed_job_ids, decision.reason)
            self.metrics.accepted += 1
            yield spec

    # ------------------------------------------------------------------ live --
    async def start(
        self, *, clock: Optional[Clock] = None, start_time: float = 0.0
    ) -> None:
        """Begin a live session: spawn the asyncio event-loop driver.

        ``clock`` paces the engine (default: real-time :class:`WallClock`);
        submissions are stamped with the clock reading, so simulated time
        tracks the clock.  Tests inject a :class:`SimulatedClock` and pass
        explicit submit times for full determinism.
        """
        if self._state != "idle":
            raise ReproError(f"service already used (state={self._state!r})")
        self._state = "live"
        self._clock = clock if clock is not None else WallClock(1.0)
        observer = _ServiceObserver(
            self.metrics, ledger=self._ledger, on_terminal=self._note_terminal
        )
        self._engine = Simulator(
            self.cluster,
            self.scheduler,
            self.config,
            observers=[observer] + self._extra_observers,
            # The driver paces with ``self._clock``; the engine itself must
            # not block inside ``_step``.
            clock=SimulatedClock(),
        )
        self.admission.reset()
        self._clock.start(start_time)
        self._engine.online_begin(start_time)
        self._last_submit_time = start_time
        self._wall_anchor = time.perf_counter()
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._stopping = False
        self._driver = asyncio.get_running_loop().create_task(self._drive())

    async def _drive(self) -> None:
        """Step the engine whenever its next event comes due on the clock."""
        engine = self._engine
        assert engine is not None and self._wake is not None and self._idle is not None
        while not self._stopping:
            next_time = engine.online_next_event_time()
            if math.isinf(next_time):
                # Nothing scheduled: sleep until a submission/cancel wakes us.
                self._idle.set()
                await self._wake.wait()
                self._wake.clear()
                continue
            self._idle.clear()
            delay = self._clock.wall_seconds_until(next_time)
            if delay > 0.0:
                # Interruptible wait: an earlier submission re-evaluates.
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=delay)
                    self._wake.clear()
                    continue
                except asyncio.TimeoutError:
                    pass
            engine.online_step()
            # Yield so submissions queued behind a burst of due events land.
            await asyncio.sleep(0)
        self._idle.set()

    def _require_live(self) -> Simulator:
        if self._state != "live" or self._engine is None:
            raise ReproError(f"service is not live (state={self._state!r})")
        return self._engine

    async def submit(
        self,
        *,
        num_tasks: int,
        cpu_need: float,
        mem_requirement: float,
        execution_time: float,
        job_id: Optional[int] = None,
        submit_time: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Admit one job; returns ``{"job_id", "accepted", "reason"}``.

        ``job_id`` defaults to a service-assigned sequential id;
        ``submit_time`` defaults to the service clock's reading and is
        clamped so engine time never goes backwards.
        """
        engine = self._require_live()
        if job_id is None:
            job_id = self._next_job_id
        self._next_job_id = max(self._next_job_id, job_id) + 1
        when = self._clock.now() if submit_time is None else submit_time
        when = max(when, engine.online_now(), self._last_submit_time)
        self.metrics.submitted += 1
        try:
            spec = JobSpec(
                job_id=job_id,
                submit_time=when,
                num_tasks=num_tasks,
                cpu_need=cpu_need,
                mem_requirement=mem_requirement,
                execution_time=execution_time,
            )
        except ReproError as error:
            self.metrics.rejected += 1
            return {"job_id": job_id, "accepted": False, "reason": str(error)}
        decision = self.admission.admit(spec, self._service_load(when))
        record = ServiceJobRecord(job_id=job_id, submit_time=when)
        if not decision.accepted:
            self.metrics.rejected += 1
            record.state = "rejected"
            record.reason = decision.reason
            self._ledger[job_id] = record
            self._note_terminal(job_id)
            return {"job_id": job_id, "accepted": False, "reason": decision.reason}
        if decision.shed_job_ids:
            self._shed(decision.shed_job_ids, decision.reason)
        try:
            engine.online_submit(spec)
        except SimulationError as error:
            # Permanently infeasible jobs (too wide/heavy for the platform)
            # are turned away rather than crashing the service.
            self.metrics.rejected += 1
            record.state = "rejected"
            record.reason = str(error)
            self._ledger[job_id] = record
            self._note_terminal(job_id)
            return {"job_id": job_id, "accepted": False, "reason": str(error)}
        self.metrics.accepted += 1
        self._last_submit_time = when
        self._ledger[job_id] = record
        assert self._wake is not None and self._idle is not None
        # Mark the service busy *now*: a drain() issued right after this
        # submit must not observe the stale idle flag before the driver task
        # has had a chance to run and clear it.
        self._idle.clear()
        self._wake.set()
        return {"job_id": job_id, "accepted": True, "reason": ""}

    async def status(self, job_id: int) -> Dict[str, Any]:
        """Ledger view of one job (``state: "unknown"`` if never seen/trimmed)."""
        self._require_live()
        record = self._ledger.get(job_id)
        if record is None:
            return {"job_id": job_id, "state": "unknown"}
        return record.to_dict()

    async def cancel(self, job_id: int) -> Dict[str, Any]:
        """Withdraw a job; returns ``{"job_id", "cancelled"}``."""
        engine = self._require_live()
        removed = engine.online_cancel(job_id)
        if removed:
            self.metrics.cancelled += 1
            record = self._ledger.get(job_id)
            if record is not None:
                record.state = "cancelled"
                self._note_terminal(job_id)
            assert self._wake is not None
            self._wake.set()
        return {"job_id": job_id, "cancelled": removed}

    async def drain(self) -> None:
        """Wait until every admitted job has completed (engine idle)."""
        self._require_live()
        assert self._idle is not None
        await self._idle.wait()

    async def shutdown(self) -> SimulationResult:
        """Stop the driver and return the results accumulated so far."""
        engine = self._require_live()
        self._stopping = True
        assert self._wake is not None and self._driver is not None
        self._wake.set()
        await self._driver
        self._state = "closed"
        return engine.online_finalize()
