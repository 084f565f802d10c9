"""The engine's per-event snapshot and its validate-on-change gate.

Both replaced slower code with the same behaviour, so the old rules are kept
here as oracles:

* ``_reference_views`` is the field-by-field ``_build_context`` body the
  engine had before views became tuple-backed and before waiting jobs'
  views were reused across events: every view rebuilt at every event.
  ``check_snapshot`` holds the engine's ``context.jobs`` to it bit for bit
  and its partitions to the per-state filter of ``jobs`` (what
  ``SchedulingContext`` computes lazily for a context built by hand), at
  every event of the paper algorithms, ``conservative`` and ``gang``, under
  failure traces, checkpoint charges, online cancels and out-of-order
  requeues; ``tests/generated`` runs it on every drawn scenario;
* the rebuild a context made by hand does in ``current_allocations`` (one
  ``JobAllocation.create`` per running view) is what the engine's context
  returned before it handed out the live allocations it applied;
  ``check_snapshot`` holds the two to the same keys, order and bits;
* ``Job.flow_time`` is what the deleted ``JobView.flow_time`` field held;
  ``SchedulingContext.flow_time`` and its inlined copies must give its bits;
* a plain ``validate_decision`` over the real specs is what the engine ran
  on every decision before validate-on-change; a scripted scheduler replays
  hypothesis-drawn decisions and the engine must raise iff that call does.
"""

from __future__ import annotations

import copy
import math
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    AllocationDecision,
    JobAllocation,
    validate_decision,
)
from repro.core.cluster import Cluster
from repro.core.context import JobView, SchedulingContext
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import Job, JobSpec, JobState
from repro.core.penalties import ReschedulingPenaltyModel
from repro.exceptions import AllocationError
from repro.models.overheads import ConstantOverheadModel
from repro.platform.events import TraceNodeEventSource
from repro.schedulers.base import Scheduler
from repro.schedulers.dfrs.dynmcb8 import DynMcb8Scheduler
from repro.schedulers.dfrs.greedy_pmtn import GreedyPmtnMigrScheduler
from repro.schedulers.dfrs.stretch_per import DynMcb8StretchPeriodicScheduler
from repro.schedulers.registry import PAPER_ALGORITHMS, create_scheduler
from repro.traces.lublin import LublinWorkloadGenerator


# --------------------------------------------------------------------------- #
# (a) the snapshot against the old field-by-field rule, at every event         #
# --------------------------------------------------------------------------- #
def _reference_views(simulator: Simulator) -> Dict[int, JobView]:
    """The pre-tuple ``Simulator._build_context`` loop, verbatim (minus the
    deleted ``backoff_count`` and ``flow_time`` fields): every active job's
    view rebuilt from the live job, whatever it did since the last event."""
    self = simulator
    clairvoyant = bool(getattr(self.scheduler, "requires_runtime_estimates", False))
    views: Dict[int, JobView] = {}
    for job_id, job in self._active.items():
        views[job_id] = JobView(
            job_id=job_id,
            num_tasks=job.spec.num_tasks,
            cpu_need=job.spec.cpu_need,
            mem_requirement=job.spec.mem_requirement,
            submit_time=job.spec.submit_time,
            state=job.state,
            virtual_time=job.virtual_time,
            assignment=job.assignment,
            current_yield=job.current_yield,
            last_assignment=job.last_assignment,
            runtime_estimate=job.spec.execution_time if clairvoyant else None,
            remaining_runtime_estimate=(
                job.remaining_work + job.penalty_remaining if clairvoyant else None
            ),
        )
    return views


def _bits(value):
    """Floats by bit pattern (tells 0.0 from -0.0), everything else as is."""
    return value.hex() if isinstance(value, float) else value


def _typed_bits(view: JobView) -> list:
    return [(type(value), _bits(value)) for value in view]


_STATES = (JobState.RUNNING, JobState.PAUSED, JobState.PENDING)


def _allocation_bits(allocations: Dict[int, JobAllocation]) -> list:
    """Ids in order, and per allocation its types, node values and yield bits."""
    return [
        (job_id, type(alloc), type(alloc.nodes), [(type(n), n) for n in alloc.nodes],
         alloc.yield_value.hex())
        for job_id, alloc in allocations.items()
    ]


def check_live_allocations(context: SchedulingContext) -> None:
    """A context's ``current_allocations`` against the rebuild a context
    built by hand over the same views does: same ids, same order, same bits,
    in a fresh dict."""
    by_hand = SchedulingContext(time=context.time, cluster=context.cluster, jobs=dict(context.jobs))
    assert by_hand._allocations is None
    live = context.current_allocations()
    assert live is not context.current_allocations()
    assert _allocation_bits(live) == _allocation_bits(by_hand.current_allocations())


def check_snapshot(simulator: Simulator, context: SchedulingContext) -> List[JobView]:
    """The engine's ``jobs`` and its three partitions against the full
    rebuild: the same ids in the same order with the same bits, and each
    partition the per-state filter of ``jobs`` (the very views, in ``jobs``
    order) — which a context built by hand computes lazily to the same lists;
    and its live ``current_allocations`` against the by-hand rebuild.
    Returns the reference views."""
    expected = _reference_views(simulator)
    assert context.time == simulator.online_now()
    assert list(context.jobs) == list(expected)  # same ids, same order
    for job_id, view in context.jobs.items():
        assert type(view) is JobView
        assert _typed_bits(view) == _typed_bits(expected[job_id]), job_id
    assert context._partition is not None  # filled by the engine, not on demand
    views = list(context.jobs.values())
    for accessor, part, state in zip(
        (context.running_jobs, context.paused_jobs, context.pending_jobs),
        context._partition,
        _STATES,
    ):
        want = [view for view in views if view.state is state]
        assert len(part) == len(want), state
        assert all(a is b for a, b in zip(part, want)), state
        assert accessor() == part and accessor() is not accessor()  # fresh lists
    by_hand = SchedulingContext(
        time=context.time, cluster=context.cluster, jobs=dict(context.jobs)
    )
    assert by_hand._partition is None
    assert by_hand._by_state() == context._by_state()
    assert context._allocations is not None  # handed over by the engine
    check_live_allocations(context)
    for job in simulator._active.values():  # kept while RUNNING, and only then
        assert (job.allocation is None) is (job.state is not JobState.RUNNING), job.job_id
    return list(expected.values())


class _Spy:
    """Transparent scheduler proxy calling ``on_context`` before each
    ``schedule`` (the engine reads every other attribute off the inner
    scheduler, so it cannot tell the difference)."""

    def __init__(self, inner, on_context) -> None:
        self._inner = inner
        self._on_context = on_context

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def start(self, cluster, start_time) -> None:
        self._inner.start(cluster, start_time)

    def schedule(self, context):
        self._on_context(context)
        return self._inner.schedule(context)


def _lublin_run(
    algorithm, on_context, *, nodes: int = 16, num_jobs: int = 40, **config
) -> None:
    """Run a registry name (or a scheduler instance) over a Lublin trace."""
    cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
    workload = LublinWorkloadGenerator(cluster).generate(num_jobs, seed=23)
    scheduler = create_scheduler(algorithm) if isinstance(algorithm, str) else algorithm
    simulator = Simulator(
        cluster,
        _Spy(scheduler, lambda context: on_context(simulator, context)),
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(300.0), **config),
    )
    assert simulator.run(workload.jobs).num_jobs == num_jobs


class _Seen:
    """Checks every snapshot; remembers the reference views it saw."""

    def __init__(self) -> None:
        self.events = 0
        self.views: List[JobView] = []

    def __call__(self, simulator, context) -> None:
        self.events += 1
        self.views.extend(check_snapshot(simulator, context))

    @property
    def states(self) -> set:
        return {view.state for view in self.views}


@pytest.mark.parametrize("algorithm", [*PAPER_ALGORITHMS, "conservative", "gang"])
def test_snapshot_equals_the_field_by_field_rule_at_every_event(algorithm):
    clairvoyant = create_scheduler(algorithm).requires_runtime_estimates
    seen = _Seen()
    _lublin_run(algorithm, seen)
    assert seen.events >= 40
    assert {JobState.RUNNING, JobState.PENDING} <= seen.states
    for view in seen.views:
        assert (view.runtime_estimate is None) == (not clairvoyant)
        assert (view.remaining_runtime_estimate is None) == (not clairvoyant)


def _failure_trace(nodes: int) -> TraceNodeEventSource:
    return TraceNodeEventSource(
        events_list=tuple(
            event
            for node in range(nodes)
            for event in [
                (3000.0 * (node + 1), node, "down"),
                (3000.0 * (node + 1) + 2000.0, node, "up"),
            ]
        )
    )


@pytest.mark.parametrize("repack_on_failure", [False, True])
@pytest.mark.parametrize(
    "algorithm, failure_policy",
    [
        ("easy", "resubmit"),  # batch schedulers never resume a checkpointed job
        *[
            (algorithm, policy)
            for algorithm in ["greedy-pmtn-migr", "dynmcb8-per-600"]
            for policy in ["resubmit", "migrate"]
        ],
    ],
)
def test_snapshot_under_a_failure_trace(algorithm, failure_policy, repack_on_failure):
    seen = _Seen()
    _lublin_run(
        algorithm,
        seen,
        node_events=_failure_trace(8),
        failure_policy=failure_policy,
        repack_on_failure=repack_on_failure,
    )
    stopped = JobState.PAUSED if failure_policy == "migrate" else JobState.PENDING
    assert stopped in seen.states
    # A failure-killed job waits again from scratch (and out of arrival order).
    assert any(view.state is stopped and view.last_assignment for view in seen.views)


class _ClairvoyantGreedyPmtnMigr(GreedyPmtnMigrScheduler):
    """GREEDY-PMTN-MIGR handed remaining-runtime estimates (no registered
    clairvoyant scheduler resumes paused jobs)."""

    requires_runtime_estimates = True


def test_checkpoint_charges_move_a_paused_jobs_clairvoyant_estimate():
    """A checkpoint or preemption charged on the way to PAUSED must be in
    the remaining-runtime estimate of the view the job gets while it waits."""
    seen = _Seen()
    _lublin_run(
        _ClairvoyantGreedyPmtnMigr(),
        seen,
        node_events=_failure_trace(8),
        failure_policy="migrate",
        overhead_model=ConstantOverheadModel(
            preemption_seconds=30.0, checkpoint_seconds=450.0, resume_seconds=7.0
        ),
    )
    paused = [view for view in seen.views if view.state is JobState.PAUSED]
    assert paused and all(view.remaining_runtime_estimate is not None for view in paused)


def test_two_jobs_reenter_pending_out_of_arrival_order_at_one_event():
    """Jobs 0 and 1 share node 0 while job 2, submitted later, waits for
    memory; node 0 fails and both are killed and requeued at one event: the
    PENDING partition is 0, 1, 2 (arrival order), not 2, 0, 1."""
    cluster = Cluster(num_nodes=1, cores_per_node=4, node_memory_gb=8.0)
    specs = [
        JobSpec(0, 0.0, 1, 0.5, 0.3, 500.0),
        JobSpec(1, 0.0, 1, 0.5, 0.3, 500.0),
        JobSpec(2, 10.0, 1, 0.5, 0.5, 500.0),
    ]
    pending_orders = []

    def check(simulator, context):
        check_snapshot(simulator, context)
        pending_orders.append([view.job_id for view in context.pending_jobs()])

    simulator = Simulator(
        cluster,
        _Spy(create_scheduler("greedy"), lambda context: check(simulator, context)),
        SimulationConfig(
            node_events=TraceNodeEventSource(events_list=((100.0, 0, "down"), (200.0, 0, "up"))),
            failure_policy="resubmit",
        ),
    )
    assert simulator.run(specs).num_jobs == 3
    assert [2] in pending_orders and [0, 1, 2] in pending_orders


class _UnclampedScheduler(Scheduler):
    """Hands the engine allocations ``JobAllocation.create`` would not make:
    a yield below ``MINIMUM_YIELD``, one a hair above 1 (both within
    ``JobAllocation``'s own bounds) and nodes in a list.  The engine applies
    them as given; what a context hands back must still be the rebuild."""

    name = "unclamped"

    def __init__(self) -> None:
        self.calls = 0

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        check_live_allocations(context)
        self.calls += 1
        decision = AllocationDecision(running={
            0: JobAllocation((0,), 0.005),
            1: JobAllocation((1,), 1.0 + 5e-10),
            2: JobAllocation([0], 0.5),  # type: ignore[arg-type]
        })
        decision.request_wakeup(context.time + 1.0)
        return decision


def test_allocations_create_would_not_make_are_handed_back_rebuilt():
    scheduler = _UnclampedScheduler()
    specs = [JobSpec(job_id, 0.0, 1, 0.5, 0.1, 100.0) for job_id in range(3)]
    simulator = Simulator(Cluster(num_nodes=2, cores_per_node=4, node_memory_gb=8.0), scheduler)
    simulator.online_begin(0.0)
    for spec in specs:
        simulator.online_submit(spec)
    for _ in range(3):
        simulator.online_step()
    assert scheduler.calls == 3
    assert simulator._active[0].current_yield == 0.005  # applied as given
    assert simulator._active[0].allocation == JobAllocation((0,), 0.01)


class _ScriptedDecisions(Scheduler):
    """Hands the engine one scripted ``{job_id: JobAllocation}`` per call."""

    name = "scripted-decisions"

    def __init__(self, decisions: List[Dict[int, JobAllocation]]) -> None:
        self.decisions = decisions
        self.calls = 0

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        decision = AllocationDecision(running=dict(self.decisions[self.calls]))
        self.calls += 1
        decision.request_wakeup(context.time + 1.0)
        return decision


def test_start_migration_and_resume_store_the_decisions_allocation():
    """A start, migration, resume or yield change on the same nodes in the
    same order stores the decision's own allocation when
    ``JobAllocation.create`` would rebuild an equal one; a yield of
    ``1 + 5e-10`` is still clamped and numpy-int nodes still int-cast, and a
    yield change that reorders the nodes keeps the applied order."""
    np = pytest.importorskip("numpy")
    started = JobAllocation((0,), 0.5)
    hair = JobAllocation((1,), 1.0 + 5e-10)
    moved = JobAllocation((1,), 0.5)
    numpy_nodes = JobAllocation((np.int64(0),), 0.5)
    resumed = JobAllocation((0,), 0.25)
    raised = JobAllocation((1,), 0.75)
    wide = JobAllocation((0, 1), 0.25)
    reordered = JobAllocation((1, 0), 0.5)
    scheduler = _ScriptedDecisions([
        {0: started, 1: hair},
        {0: moved, 2: numpy_nodes},
        {0: moved, 1: resumed, 2: numpy_nodes},
        {0: raised, 1: resumed, 2: numpy_nodes, 3: wide},
        {0: hair, 1: resumed, 2: numpy_nodes, 3: reordered},
    ])
    simulator = Simulator(Cluster(num_nodes=2, cores_per_node=4, node_memory_gb=8.0), scheduler)
    simulator.online_begin(0.0)
    for job_id in range(3):
        simulator.online_submit(JobSpec(job_id, 0.0, 1, 0.5, 0.1, 100.0))
    simulator.online_submit(JobSpec(3, 0.0, 2, 0.5, 0.1, 100.0))
    jobs = simulator._active

    simulator.online_step()
    assert jobs[0].allocation is started
    assert jobs[1].current_yield == 1.0 + 5e-10  # applied as given
    assert jobs[1].allocation == JobAllocation((1,), 1.0)

    simulator.online_step()
    assert jobs[0].allocation is moved
    assert jobs[1].allocation is None
    assert jobs[2].allocation == JobAllocation((0,), 0.5)
    assert type(jobs[2].allocation.nodes[0]) is int

    simulator.online_step()
    assert scheduler.calls == 3
    assert jobs[1].allocation is resumed
    assert jobs[0].allocation is moved

    # Yield-only changes: same nodes in the same order store the decision's
    # allocation, clamped when ``create`` would clamp it.
    simulator.online_step()
    assert jobs[0].allocation is raised
    assert jobs[3].allocation is wide

    simulator.online_step()
    assert scheduler.calls == 5
    assert jobs[0].current_yield == 1.0 + 5e-10
    assert jobs[0].allocation == JobAllocation((1,), 1.0)
    # A reordering of the same nodes keeps the applied node order.
    assert jobs[3].assignment == (0, 1)
    assert jobs[3].allocation == JobAllocation((0, 1), 0.5)
    assert jobs[3].migration_count == 0


def test_online_cancel_in_each_state():
    """An online drive cancels a PENDING, a PAUSED and a RUNNING job (one per
    step, as each state shows up) and a not-yet-arrived one; every snapshot
    after a cancel is the full rebuild, so none of them lingers in a table."""
    cluster = Cluster(num_nodes=2, cores_per_node=4, node_memory_gb=8.0)
    specs = [
        JobSpec(0, 0.0, 1, 1.0, 0.6, 1000.0),
        JobSpec(1, 0.0, 1, 1.0, 0.6, 1000.0),
        JobSpec(2, 10.0, 2, 1.0, 0.6, 500.0),
        JobSpec(3, 10.0, 2, 1.0, 0.6, 500.0),
        JobSpec(4, 20.0, 1, 0.5, 0.2, 100.0),
        JobSpec(5, 5000.0, 1, 0.5, 0.2, 100.0),
    ]
    seen = _Seen()
    simulator = Simulator(
        cluster, _Spy(create_scheduler("greedy-pmtn"), lambda context: seen(simulator, context))
    )
    simulator.online_begin(0.0)
    for spec in specs:
        simulator.online_submit(spec)
    assert simulator.online_cancel(5)  # withdrawn before it arrives
    cancelled: Dict[JobState, int] = {}
    while not math.isinf(simulator.online_step()):
        for job_id, job in simulator._active.items():
            if job.state in _STATES and job.state not in cancelled:
                cancelled[job.state] = job_id
                assert simulator.online_cancel(job_id)
                break
    simulator.online_finalize()
    assert set(cancelled) == set(_STATES)
    assert not simulator._views and not simulator._pending_views and not simulator._paused_views


# --------------------------------------------------------------------------- #
# (b) flow time: derived from the context, bit for bit what the field held     #
# --------------------------------------------------------------------------- #
_NAN = float("nan")
_FLOW_GRID = [(-0.0, 0.0), (0.0, 0.0), (_NAN, 0.0), (5.0, 2.0), (1.0, 3.0), (0.0, -0.0)]


def _waiting_view(job_id: int, submit: float, vt: float = 0.0) -> JobView:
    return JobView(job_id, 1, 0.5, 0.5, submit, JobState.PENDING, vt, None, 0.0, None)


@pytest.mark.parametrize("now, submit", _FLOW_GRID)
def test_context_flow_time_clamp_is_max_zero(now, submit):
    """``SchedulingContext.flow_time`` against ``Job.flow_time`` (the
    ``max(0.0, flow)`` the engine's inline clamp replaced): -0.0 and NaN
    both clamp to +0.0."""
    job = Job(spec=JobSpec(0, submit, 1, 0.5, 0.5, 10.0))
    context = SchedulingContext(time=now, cluster=_CLUSTER, jobs={})
    flow = context.flow_time(_waiting_view(0, submit))
    assert flow.hex() == max(0.0, now - submit).hex() == job.flow_time(now).hex()


@pytest.mark.parametrize("now, submit", _FLOW_GRID)
def test_dynmcb8_packing_jobs_carry_the_context_flow_time(now, submit):
    """``_search_evicting`` inlines ``context.flow_time`` into each
    ``PackingJob``; the inline form must give the same bits."""
    view = _waiting_view(0, submit)
    context = SchedulingContext(time=now, cluster=_CLUSTER, jobs={0: view})
    packed = []

    def search(jobs, num_nodes, *, capacities):
        packed.extend(jobs)
        return SimpleNamespace(success=True)

    DynMcb8Scheduler._search_evicting(context, [view], search)
    assert [job.flow_time.hex() for job in packed] == [context.flow_time(view).hex()]


class _FieldRuleContext(SchedulingContext):
    """A context whose flow time is the rule the ``flow_time`` field was
    filled with (``Job.flow_time``)."""

    def flow_time(self, view: JobView) -> float:
        return max(0.0, self.time - view.submit_time)


@pytest.mark.parametrize("now", [0.0, 350.0, 900.0, _NAN])
def test_stretch_per_estimate_equals_the_field_rule(now):
    """DYNMCB8-STRETCH-PER's average-stretch improvement gives every job the
    same yield, bit for bit, whether the flow time comes from the context or
    from the rule that filled the old field; submit times straddle ``now``."""
    views = {
        i: JobView(i, 1, 0.4 + 0.1 * i, 0.2, 300.0 * i, JobState.RUNNING, 20.0 * i, (i % 2,), 0.3, None)
        for i in range(4)
    }
    placements = {i: view.assignment for i, view in views.items()}
    yields = {i: 0.1 for i in views}
    scheduler = DynMcb8StretchPeriodicScheduler(600.0)
    results = [
        scheduler._improve_average_stretch(
            placements, yields, context_type(time=now, cluster=_CLUSTER, jobs=views)
        )
        for context_type in (SchedulingContext, _FieldRuleContext)
    ]
    live, field_rule = ([value.hex() for value in result.values()] for result in results)
    assert live == field_rule


# --------------------------------------------------------------------------- #
# (c) contexts are snapshots: what was read during the run reads the same      #
#     after it (bench/probes.py replays captured contexts after the run)       #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ["fcfs", "greedy-pmtn-migr", "dynmcb8-per-600"])
def test_captured_contexts_read_the_same_after_the_run(algorithm):
    captured: List[Tuple[SchedulingContext, tuple]] = []

    def read(context: SchedulingContext) -> tuple:
        return (
            context.time,
            [(job_id, tuple(view)) for job_id, view in context.jobs.items()],
            [view.job_id for view in context.running_jobs()],
            [view.job_id for view in context.paused_jobs()],
            [view.job_id for view in context.pending_jobs()],
            list(context.submitted),
            list(context.completed),
            sorted(context.current_allocations().items()),
        )

    _lublin_run(algorithm, lambda _simulator, context: captured.append((context, read(context))))
    assert len(captured) >= 40
    states = set()
    for context, seen in captured:
        assert read(context) == seen
        states.update(view.state for view in context.jobs.values())
    # The run is over and every job completed, yet no captured view says so.
    assert JobState.RUNNING in states and JobState.COMPLETED not in states


@pytest.mark.parametrize("algorithm", ["fcfs", "greedy-pmtn-migr", "dynmcb8-per-600"])
def test_a_kept_context_equals_its_deep_copy_after_the_run(algorithm):
    """A scheduler keeps every context; after the run each one's ``jobs``,
    partitions and views equal the deep copy taken when it was handed over.
    A waiting job's view may be the same object at several events (views are
    immutable); a ``jobs`` dict or a partition list may not."""
    kept = []

    def keep(_simulator, context):
        kept.append((context, copy.deepcopy((context.jobs, context._partition))))

    config = {} if algorithm == "fcfs" else {
        "node_events": _failure_trace(8), "failure_policy": "migrate"
    }
    _lublin_run(algorithm, keep, **config)

    def bits(jobs, partition):
        return (
            [(job_id, _typed_bits(view)) for job_id, view in jobs.items()],
            [[_typed_bits(view) for view in part] for part in partition],
        )

    for context, (jobs, partition) in kept:
        assert bits(context.jobs, context._partition) == bits(jobs, partition)
    containers = [id(c) for context, _ in kept for c in (context.jobs, *context._partition)]
    assert len(set(containers)) == len(containers)  # nothing shared across events
    reused = [
        view
        for (before, _), (after, _) in zip(kept, kept[1:])
        for job_id, view in before.jobs.items()
        if after.jobs.get(job_id) is view
    ]
    assert reused and all(view.state is not JobState.RUNNING for view in reused)


# --------------------------------------------------------------------------- #
# (d) validate-on-change against a plain validate_decision                     #
# --------------------------------------------------------------------------- #
_NODES = 4
_CLUSTER = Cluster(num_nodes=_NODES, cores_per_node=4, node_memory_gb=8.0)

#: Four two-task jobs fill every node's memory (2 x 0.5) and, at yield 0.8,
#: nearly all of its CPU (2 x 0.6 x 0.8 = 0.96): any extra task overcommits
#: memory, any yield nudged up overcommits CPU.  Two one-task jobs wait.
_SPECS = {
    spec.job_id: spec
    for spec in [
        JobSpec(0, 0.0, 2, 0.6, 0.5, 1e6),
        JobSpec(1, 0.0, 2, 0.6, 0.5, 1e6),
        JobSpec(2, 0.0, 2, 0.6, 0.5, 1e6),
        JobSpec(3, 0.0, 2, 0.6, 0.5, 1e6),
        JobSpec(4, 0.0, 1, 0.6, 0.5, 1e6),
        JobSpec(5, 0.0, 1, 0.3, 0.25, 1e6),
    ]
}
_BASE_YIELD = 0.8
_BASE = {0: (0, 1), 1: (0, 1), 2: (2, 3), 3: (2, 3)}

_KINDS = [
    "keep",
    "subset",
    "reverse-entries",
    "reverse-nodes",
    "reverse-nodes-and-yield",
    "nudge-yield",
    "migrate",
    "start",
    "resume-on-old-nodes",
    "unknown-job",
    "extra-task",
    "out-of-range",
]
_YIELDS = [_BASE_YIELD, _BASE_YIELD, 0.4, 1.0, 0.8000001, 0.85]

_OPS = st.tuples(
    st.sampled_from(_KINDS),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from(_YIELDS),
)


def _mutated(context: SchedulingContext, op) -> AllocationDecision:
    """The running allocations of ``context`` with one drawn edit applied."""
    kind, i, j, yield_value = op
    running = context.running_jobs()
    others = [view for view in context.jobs.values() if not view.is_running]
    allocations = {
        view.job_id: JobAllocation(view.assignment, view.current_yield)
        for view in running
    }
    victim = running[i % len(running)] if running else None
    if kind == "subset" and victim is not None:
        del allocations[victim.job_id]
    elif kind == "reverse-entries":
        allocations = dict(reversed(list(allocations.items())))
    elif kind == "reverse-nodes" and victim is not None:
        allocations[victim.job_id] = JobAllocation(
            victim.assignment[::-1], victim.current_yield
        )
    elif kind == "reverse-nodes-and-yield" and victim is not None:
        # Same nodes in another order at a new yield: the engine keeps its
        # own order, so its live allocation must not be this one.
        allocations[victim.job_id] = JobAllocation(victim.assignment[::-1], yield_value)
    elif kind == "nudge-yield" and victim is not None:
        allocations[victim.job_id] = JobAllocation(victim.assignment, yield_value)
    elif kind == "migrate" and victim is not None:
        nodes = tuple((node + 1 + j) % _NODES for node in victim.assignment)
        allocations[victim.job_id] = JobAllocation(nodes, victim.current_yield)
    elif kind == "start" and others:
        view = others[i % len(others)]
        nodes = tuple((j + k) % _NODES for k in range(view.num_tasks))
        allocations[view.job_id] = JobAllocation(nodes, yield_value)
    elif kind == "resume-on-old-nodes":
        # A job that ran before (PAUSED, or PENDING again after a failure
        # kill) handed back exactly what it held — possibly on a node that
        # is down now, possibly next to whoever took its place.
        stopped = [view for view in others if view.last_assignment is not None]
        if stopped:
            view = stopped[i % len(stopped)]
            allocations[view.job_id] = JobAllocation(view.last_assignment, _BASE_YIELD)
    elif kind == "unknown-job":
        allocations[999] = JobAllocation((j % _NODES,), yield_value)
    elif kind == "extra-task" and victim is not None:
        allocations[victim.job_id] = JobAllocation(
            victim.assignment + (j % _NODES,), victim.current_yield
        )
    elif kind == "out-of-range" and victim is not None:
        nodes = (_NODES + j,) + victim.assignment[1:]
        allocations[victim.job_id] = JobAllocation(nodes, victim.current_yield)
    return AllocationDecision(running=allocations)


class _ReplayScheduler(Scheduler):
    """Starts the base allocation, then applies one drawn edit per event.

    Before returning a decision it runs the oracle — the unconditional
    ``validate_decision`` the engine used to make, over the real specs and a
    tally with the down nodes marked — and keeps what it raised.
    """

    name = "replay"

    def __init__(self) -> None:
        self.op = None
        self.oracle_error: Optional[AllocationError] = None
        self.last_decision: Optional[AllocationDecision] = None

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        check_live_allocations(context)  # the drawn reorderings reach it here
        if self.op is None:
            decision = AllocationDecision(
                running={
                    job_id: JobAllocation(nodes, _BASE_YIELD)
                    for job_id, nodes in _BASE.items()
                }
            )
        else:
            decision = _mutated(context, self.op)
        decision.request_wakeup(context.time + 1.0)
        specs = {job_id: _SPECS[job_id] for job_id in context.jobs}
        usage = _CLUSTER.usage(context.down_nodes) if context.down_nodes else None
        self.oracle_error = None
        try:
            validate_decision(decision, specs, _CLUSTER, usage=usage)
        except AllocationError as error:
            self.oracle_error = error
        self.last_decision = decision
        return decision


def _replay_simulator(
    scheduler: _ReplayScheduler,
    failure_policy: str,
    fail_at: Optional[float],
    *,
    engine: type = Simulator,
    penalty: float = 0.0,
    observers=(),
) -> Simulator:
    """An online ``engine`` holding ``_SPECS``, one step in: the base
    allocation is applied (fully validated) and node 1 fails at ``fail_at``."""
    node_events = None
    if fail_at is not None:
        node_events = TraceNodeEventSource(
            events_list=((fail_at, 1, "down"), (fail_at + 3.0, 1, "up"))
        )
    simulator = engine(
        _CLUSTER,
        scheduler,
        SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(penalty),
            node_events=node_events,
            failure_policy=failure_policy,
        ),
        observers=observers,
    )
    simulator.online_begin(0.0)
    for spec in _SPECS.values():
        simulator.online_submit(spec)
    simulator.online_step()
    assert scheduler.oracle_error is None
    return simulator


def _replay(ops, failure_policy: str, fail_at: Optional[float]) -> int:
    """Drive the engine through ``ops``; returns how many decisions it took."""
    scheduler = _ReplayScheduler()
    simulator = _replay_simulator(scheduler, failure_policy, fail_at)
    accepted = 1
    for op in ops:
        scheduler.op = op
        scheduler.last_decision = None
        try:
            simulator.online_step()
        except AllocationError as error:
            raised: Optional[AllocationError] = error
        else:
            raised = None
        if scheduler.last_decision is None:
            continue  # a node event with nothing left to schedule
        expected = scheduler.oracle_error
        if expected is None:
            assert raised is None, (op, raised)
            accepted += 1
        else:
            assert raised is not None, (op, expected)
            assert type(raised) is type(expected) and str(raised) == str(expected)
            break  # the engine is mid-event; a real run ends here too
    return accepted


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(_OPS, min_size=1, max_size=10),
    failure_policy=st.sampled_from(["resubmit", "migrate"]),
    fail_at=st.sampled_from([None, 0.5, 2.5, 4.5]),
)
def test_engine_raises_iff_plain_validation_raises(ops, failure_policy, fail_at):
    _replay(ops, failure_policy, fail_at)


@pytest.mark.parametrize(
    "ops, raises",
    [
        # unchanged / subset / reordered entries: nothing to tally, no error
        ([("keep", 0, 0, 0.8), ("reverse-entries", 0, 0, 0.8), ("subset", 1, 0, 0.8)], False),
        # same nodes in another order is a change (validated), not an error
        ([("reverse-nodes", 0, 0, 0.8), ("keep", 0, 0, 0.8)], False),
        # one yield nudged up: 0.6 x 0.8 + 0.6 x 1.0 > 1 on both nodes
        ([("keep", 0, 0, 0.8), ("nudge-yield", 2, 0, 1.0)], True),
        # one yield nudged down is fine
        ([("nudge-yield", 2, 0, 0.4)], False),
        # one extra task on a full node: job 4 (memory 0.5) started on node 0
        ([("keep", 0, 0, 0.8), ("start", 0, 0, 0.8)], True),
        # a PAUSED job handed back its old nodes after job 4 took a slot there
        ([("subset", 0, 0, 0.8), ("start", 1, 0, 0.8), ("resume-on-old-nodes", 0, 0, 0.8)], True),
        # ... and with the slot still free it simply resumes
        ([("subset", 0, 0, 0.8), ("resume-on-old-nodes", 0, 0, 0.8)], False),
    ],
)
def test_replay_named_cases(ops, raises):
    accepted = _replay(ops, "migrate", None)
    assert accepted == (len(ops) if raises else len(ops) + 1)


@pytest.mark.parametrize("failure_policy", ["resubmit", "migrate"])
def test_job_on_a_down_node_is_rejected(failure_policy):
    # Node 1 fails at t=0.5 (jobs 0 and 1 are evicted) and is repaired at
    # t=3.5; the scheduler is woken every 0.5 s.  While the node is down,
    # handing job 0 its old nodes back must raise; once it is up again (the
    # ninth step, t=4.5) the same decision is fine.
    down = [("keep", 0, 0, 0.8), ("resume-on-old-nodes", 0, 0, 0.8)]
    assert _replay(down, failure_policy, 0.5) == len(down)
    repaired = [("keep", 0, 0, 0.8)] * 8 + [("resume-on-old-nodes", 0, 0, 0.8)]
    assert _replay(repaired, failure_policy, 0.5) == len(repaired) + 1


def test_unchanged_decisions_skip_the_tally(monkeypatch):
    """The point of the gate: a decision that only keeps live allocations is
    not tallied; anything else still is."""
    import repro.core.engine as engine_module

    calls = []

    def counting(decision, specs, cluster, *, usage=None):
        calls.append(sorted(decision.running))
        return validate_decision(decision, specs, cluster, usage=usage)

    monkeypatch.setattr(engine_module, "validate_decision", counting)
    ops = [
        ("keep", 0, 0, 0.8),
        ("reverse-entries", 0, 0, 0.8),
        ("subset", 3, 0, 0.8),  # job 3 paused: still only live allocations
        ("keep", 0, 0, 0.8),
        ("nudge-yield", 0, 0, 0.4),  # a change: tallied
        ("keep", 0, 0, 0.8),
        ("resume-on-old-nodes", 0, 0, 0.8),  # a resume: tallied
    ]
    assert _replay(ops, "migrate", None) == len(ops) + 1
    assert calls == [[0, 1, 2, 3], [0, 1, 2], [0, 1, 2, 3]]


def test_telemetry_counts_validated_and_kept_decisions(monkeypatch):
    """``decisions_validated + decisions_kept == scheduler_invocations`` and
    ``tasks_tallied`` is the number of tasks the validated decisions placed."""
    import repro.core.engine as engine_module
    from repro.obs import Telemetry

    tallied = []

    def counting(decision, specs, cluster, *, usage=None):
        tallied.append(sum(len(alloc.nodes) for alloc in decision.running.values()))
        return validate_decision(decision, specs, cluster, usage=usage)

    monkeypatch.setattr(engine_module, "validate_decision", counting)
    cluster = Cluster(8, 4, 8.0)
    telemetry = Telemetry()
    simulator = Simulator(
        cluster,
        create_scheduler("greedy-pmtn-migr"),
        SimulationConfig(telemetry=telemetry),
    )
    simulator.run(LublinWorkloadGenerator(cluster).generate(40, seed=5).jobs)
    counters = telemetry.counters
    assert counters["engine.decisions_validated"] == len(tallied) > 0
    assert counters["engine.decisions_kept"] > 0
    assert (
        counters["engine.decisions_validated"] + counters["engine.decisions_kept"]
        == counters["engine.scheduler_invocations"]
    )
    assert counters["engine.tasks_tallied"] == sum(tallied) > 0
