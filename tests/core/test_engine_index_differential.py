"""The RUNNING-job index against the full-table walks it replaced.

``reference_engine_walks.py`` keeps the parent commit's ``_advance_to``,
``_collect_triggers``, ``_apply_decision``, ``_apply_node_down`` and
``_build_context`` verbatim: each visits every active job on every event.
The live engine walks ``_running`` (plus the jobs a decision names) sorted
by arrival rank and fills the context's partition while it builds the views.
That is only an optimisation if nothing can tell: on every case below the two
engines must produce the same placement-log bytes, the same result
fingerprint, the same cost tally bit for bit, the same flight events and the
same observer events, every field, in the same order.

The live engine additionally runs under :class:`CheckedSimulator`, which
asserts the index invariant after every event: ``_running`` sorted by arrival
rank is exactly the RUNNING jobs of ``_active`` in ``_active`` order, and it
is empty when the run ends.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.allocation import AllocationDecision
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobSpec, JobState
from repro.core.penalties import ReschedulingPenaltyModel
from repro.exceptions import AllocationError
from repro.platform import (
    ExponentialFailureSource,
    NodeClass,
    NodeClassesPlatform,
    TraceNodeEventSource,
)
from repro.schedulers.registry import (
    BATCH_ALGORITHMS,
    PAPER_ALGORITHMS,
    create_scheduler,
)
from repro.serve import PlacementLogObserver
from repro.traces.lublin import LublinWorkloadGenerator

from ..conftest import make_job
from .reference_engine_walks import ReferenceWalksSimulator
from .test_engine_equivalence import ScriptedScheduler, _fingerprint
from .test_engine_snapshots import _OPS, _ReplayScheduler, _replay_simulator


def _bits(value: Any) -> Any:
    """Floats by bit pattern, containers recursively, everything else as is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


class CallLog(list):
    """Every event the engine emits, in order."""

    on_event = list.append


def assert_index_invariant(simulator: Simulator) -> None:
    active = simulator._active
    ranks = [job.arrival_rank for job in active.values()]
    assert ranks == sorted(set(ranks)), "arrival ranks must follow _active order"
    indexed = sorted(simulator._running.values(), key=lambda job: job.arrival_rank)
    assert [job.job_id for job in indexed] == [
        job_id for job_id, job in active.items() if job.state is JobState.RUNNING
    ]
    for job_id, job in simulator._running.items():
        assert active[job_id] is job and job.assignment is not None


class CheckedSimulator(Simulator):
    """The live engine, with the index invariant asserted after every event."""

    def _step(self, next_time: float) -> None:
        super()._step(next_time)
        assert_index_invariant(self)

    def online_cancel(self, job_id: int) -> bool:
        removed = super().online_cancel(job_id)
        assert_index_invariant(self)
        return removed

    def _finalize(self):
        assert not self._running
        return super()._finalize()


Driver = Callable[[Simulator, Sequence[JobSpec]], Any]


def _run(simulator: Simulator, specs: Sequence[JobSpec]):
    return simulator.run(specs)


def _run_stream(simulator: Simulator, specs: Sequence[JobSpec]):
    return simulator.run_stream(iter(sorted(specs, key=lambda spec: spec.submit_time)))


def _observe(
    engine: type,
    cluster: Cluster,
    scheduler: Any,
    specs: Sequence[JobSpec],
    *,
    driver: Driver = _run,
    flight: bool = False,
    **config: Any,
) -> Dict[str, Any]:
    """One run on ``engine``; everything an outsider can see of it."""
    placements = PlacementLogObserver()
    calls = CallLog()
    if flight:
        config["telemetry"] = {"type": "stats", "flight": 1 << 16}
    simulator = engine(
        cluster, scheduler, SimulationConfig(**config), observers=[placements, calls]
    )
    result = driver(simulator, specs)
    seen = {
        "placement_log": placements.to_json_bytes(),
        "fingerprint": _bits(_fingerprint(result)),
        "costs": {name: _bits(value) for name, value in asdict(result.costs).items()},
        "calls": _bits(calls),
        "events": simulator.events_processed,
        "peak_resident_jobs": simulator.peak_resident_jobs,
    }
    if flight:
        recorder = simulator.telemetry.flight
        assert recorder.dropped == 0
        seen["flight"] = [_bits(tuple(asdict(e).values())) for e in recorder.events()]
    return seen


def _differential(cluster, make_scheduler, specs, **kwargs) -> Dict[str, Any]:
    """Run both engines; the live one must be indistinguishable."""
    want = _observe(ReferenceWalksSimulator, cluster, make_scheduler(), specs, **kwargs)
    got = _observe(CheckedSimulator, cluster, make_scheduler(), specs, **kwargs)
    for key in want:
        assert got[key] == want[key], key
    return got


def _lublin(cluster: Cluster, num_jobs: int, seed: int) -> List[JobSpec]:
    return list(LublinWorkloadGenerator(cluster).generate(num_jobs, seed=seed).jobs)


def _actions(seen: Dict[str, Any]) -> set:
    return {call[0] for call in seen["calls"]}


# --------------------------------------------------------------------------- #
# (a) the paper's nine algorithms                                              #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("penalty", [0.0, 300.0])
@pytest.mark.parametrize("seed", [11, 42])
@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
def test_paper_algorithms(algorithm, seed, penalty):
    cluster = Cluster(num_nodes=16, cores_per_node=4, node_memory_gb=8.0)
    num_jobs = 80 if algorithm in BATCH_ALGORITHMS else 36
    seen = _differential(
        cluster,
        lambda: create_scheduler(algorithm),
        _lublin(cluster, num_jobs, seed),
        penalty_model=ReschedulingPenaltyModel(penalty),
    )
    assert len(seen["fingerprint"][4]) == num_jobs


# --------------------------------------------------------------------------- #
# (b) node failures: both policies, with and without repack-on-failure         #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("repack", [False, True])
@pytest.mark.parametrize("policy", ["resubmit", "migrate"])
@pytest.mark.parametrize("algorithm", ["greedy-pmtn-migr", "dynmcb8-asap-per-600"])
def test_node_failures(algorithm, policy, repack):
    cluster = Cluster(num_nodes=12, cores_per_node=4, node_memory_gb=8.0)
    specs = _lublin(cluster, 36, seed=7)
    horizon = max(spec.submit_time for spec in specs) + 20_000.0
    seen = _differential(
        cluster,
        lambda: create_scheduler(algorithm),
        specs,
        flight=True,
        penalty_model=ReschedulingPenaltyModel(300.0),
        node_events=ExponentialFailureSource(
            mtbf_seconds=horizon / 3.0,
            mttr_seconds=1800.0,
            horizon_seconds=horizon,
            seed=5,
        ),
        failure_policy=policy,
        repack_on_failure=repack,
    )
    # The case is only worth its time if failures really evicted jobs.
    eviction = "failure-kill" if policy == "resubmit" else "checkpoint"
    assert {"node-down", "node-up", eviction} <= _actions(seen)
    assert _actions(seen) & {"failure-kill", "checkpoint"} == {eviction}


def test_one_failure_evicts_several_jobs_in_arrival_order():
    """Three jobs share node 0 and started in reverse arrival order; the
    failure must evict them in arrival order under either policy."""

    def reverse_starts(context):
        decision = AllocationDecision()
        for view in context.jobs.values():
            if view.is_running:
                decision.set(view.job_id, view.assignment, view.current_yield)
        waiting = [view for view in context.jobs.values() if not view.is_running]
        if context.time < 30.0:
            # one start per event, youngest first: _running becomes 2, 1, 0
            if waiting:
                decision.set(waiting[-1].job_id, [0], 0.3)
            decision.request_wakeup(context.time + 10.0)
        else:
            for view in waiting:
                decision.set(view.job_id, [1], 0.3)
        return decision

    specs = [make_job(i, cpu=0.3, mem=0.2, runtime=500.0) for i in range(3)]
    for policy in ("resubmit", "migrate"):
        seen = _differential(
            Cluster(2),
            lambda: ScriptedScheduler(reverse_starts),
            specs,
            flight=True,
            penalty_model=ReschedulingPenaltyModel(300.0),
            node_events=TraceNodeEventSource(events_list=((100.0, 0, "down"),)),
            failure_policy=policy,
        )
        evictions = ("failure-kill", "checkpoint")
        evicted = [call[2].job_id for call in seen["calls"] if call[0] in evictions]
        assert evicted == [0, 1, 2]


# --------------------------------------------------------------------------- #
# (c) a node-class cluster                                                     #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ["easy", "greedy-pmtn-migr", "dynmcb8-per-600"])
def test_node_class_cluster(algorithm):
    cluster = NodeClassesPlatform(
        classes=(
            NodeClass("fast", 4, cpu=2.0, memory=1.0),
            NodeClass("standard", 8, cpu=1.0, memory=1.0),
            NodeClass("small", 4, cpu=0.5, memory=0.5),
        )
    ).build_cluster()
    specs = _lublin(cluster, 40, seed=2010)
    if algorithm in BATCH_ALGORITHMS:
        # a whole-node task of any job fits the 12 fast and standard nodes
        specs = [spec for spec in specs if spec.num_tasks <= 12]
    _differential(
        cluster,
        lambda: create_scheduler(algorithm),
        specs,
        penalty_model=ReschedulingPenaltyModel(300.0),
    )


# --------------------------------------------------------------------------- #
# (d) the three drivers; the online one cancels a job in each state            #
# --------------------------------------------------------------------------- #
_CANCEL_KINDS = ("running", "paused", "pending", "queued")


def _first_of_kind(simulator: Simulator, kind: str) -> Optional[int]:
    if kind == "queued":
        for job_id in simulator._jobs:
            if job_id not in simulator._active and job_id not in simulator._cancelled_pending:
                return job_id
        return None
    state = JobState[kind.upper()]
    for job_id, job in simulator._active.items():
        if job.state is state:
            return job_id
    return None


def _online_with_cancels(
    simulator: Simulator, specs: Sequence[JobSpec], cancelled: List[tuple]
):
    """Submit everything up front, step to the end, and after the twelfth
    event cancel the first job found in each state (one cancel per event)."""
    simulator.online_begin(specs[0].submit_time)
    for spec in specs:
        simulator.online_submit(spec)
    wanted = list(_CANCEL_KINDS)
    steps = 0
    while not math.isinf(simulator.online_step()):
        steps += 1
        if steps < 12:
            continue  # let a backlog build first
        for kind in wanted:
            victim = _first_of_kind(simulator, kind)
            if victim is not None:
                assert simulator.online_cancel(victim)
                cancelled.append((kind, victim, simulator.online_now()))
                wanted.remove(kind)
                break
    return simulator.online_finalize()


@pytest.mark.parametrize("algorithm", ["fcfs", "greedy-pmtn", "dynmcb8-asap-per-600"])
def test_run_and_run_stream(algorithm):
    cluster = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)
    specs = _lublin(cluster, 30, seed=3)
    for driver in (_run, _run_stream):
        _differential(cluster, lambda: create_scheduler(algorithm), specs, driver=driver)


@pytest.mark.parametrize("algorithm", ["dynmcb8-per-600", "dynmcb8-asap-per-600"])
def test_online_drive_with_a_cancel_in_every_state(algorithm):
    cluster = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)
    specs = _lublin(cluster, 40, seed=3)
    per_engine: List[List[tuple]] = []

    def driver(simulator, specs):
        per_engine.append([])
        return _online_with_cancels(simulator, specs, per_engine[-1])

    seen = _differential(
        cluster,
        lambda: create_scheduler(algorithm),
        specs,
        driver=driver,
        flight=True,
        penalty_model=ReschedulingPenaltyModel(300.0),
    )
    reference, live = per_engine
    assert live == reference
    assert sorted(kind for kind, _, _ in live) == sorted(_CANCEL_KINDS)
    assert len(seen["fingerprint"][4]) == len(specs) - len(_CANCEL_KINDS)


# --------------------------------------------------------------------------- #
# (e) two hand-built cases a grid cannot be trusted to hit                     #
# --------------------------------------------------------------------------- #
def test_two_jobs_started_in_reverse_arrival_order_finish_in_one_event():
    """Job 1 starts at t=0, job 0 at t=10; both drain at t=100.  The index
    holds them as (1, 0); they must complete as (0, 1)."""
    completed_seen: List[List[int]] = []

    def script(context):
        completed_seen.append(list(context.completed))
        decision = AllocationDecision()
        for view in context.jobs.values():
            if view.is_running:
                decision.set(view.job_id, view.assignment, 1.0)
        if context.time == 0.0:
            decision.set(1, [1], 1.0)
            decision.request_wakeup(10.0)
        elif context.time == 10.0:
            decision.set(0, [0], 1.0)
        elif 2 in context.jobs:
            decision.set(2, [2], 1.0)
        return decision

    specs = [
        make_job(0, runtime=90.0),
        make_job(1, runtime=100.0),
        make_job(2, submit=50.0, runtime=200.0),
    ]
    seen = _differential(Cluster(4), lambda: ScriptedScheduler(script), specs, flight=True)
    finished = [call for call in seen["calls"] if call[0] == "complete"]
    assert [(call[1], call[2].job_id) for call in finished[:2]] == [
        ((100.0).hex(), 0),
        ((100.0).hex(), 1),
    ]
    assert [0, 1] in completed_seen


def test_decision_naming_jobs_out_of_arrival_order():
    """One preemption, one resume, one migration and one start in one event,
    from a decision dict that lists them youngest first."""

    def script(context):
        decision = AllocationDecision()
        if context.time == 0.0:
            for job_id in (2, 1, 0):
                decision.set(job_id, [job_id], 0.5)
            decision.request_wakeup(10.0)
        elif context.time == 10.0:
            decision.set(2, [2], 0.5)  # job 1 is preempted
            decision.set(0, [0], 0.5)
            decision.request_wakeup(20.0)
        elif context.time == 20.0:
            decision.set(3, [3], 0.7)  # start
            decision.set(2, [4], 0.6)  # migration
            decision.set(1, [1], 0.8)  # resume; job 0 is preempted
            decision.request_wakeup(30.0)
        else:
            for view in reversed(list(context.jobs.values())):
                nodes = view.assignment if view.is_running else [view.job_id]
                decision.set(view.job_id, nodes, 1.0)
        return decision

    specs = [make_job(i, cpu=0.5, mem=0.1 * (i + 1), runtime=1000.0) for i in range(4)]
    seen = _differential(
        Cluster(5),
        lambda: ScriptedScheduler(script),
        specs,
        flight=True,
        penalty_model=ReschedulingPenaltyModel(300.0),
    )
    at_twenty = [
        (call[0], call[2] and call[2].job_id)
        for call in seen["calls"]
        if call[1] == (20.0).hex()
    ]
    assert at_twenty == [
        ("preempt", 0), ("resume", 1), ("migrate", 2), ("start", 3), ("applied", None)
    ]


# --------------------------------------------------------------------------- #
# (f) drawn decision sequences (test_engine_snapshots' op strategy)            #
# --------------------------------------------------------------------------- #
def _replay(engine: type, ops, failure_policy: str, fail_at: Optional[float]):
    """Drive ``engine`` through ``ops``; what it did and what stopped it."""
    scheduler = _ReplayScheduler()
    calls = CallLog()
    simulator = _replay_simulator(
        scheduler, failure_policy, fail_at, engine=engine, penalty=300.0, observers=[calls]
    )
    error = None
    for op in ops:
        scheduler.op = op
        try:
            simulator.online_step()
        except AllocationError as raised:
            error = (type(raised), str(raised))
            break
    costs = {name: _bits(value) for name, value in asdict(simulator._costs).items()}
    jobs = [
        (job_id, job.state, job.assignment, _bits(job.current_yield),
         _bits(job.remaining_work), _bits(job.penalty_remaining), job.preemption_count)
        for job_id, job in simulator._active.items()
    ]
    return _bits(calls), error, costs, jobs, _bits(simulator._idle_node_seconds)


@given(
    ops=st.lists(_OPS, min_size=1, max_size=10),
    failure_policy=st.sampled_from(["resubmit", "migrate"]),
    fail_at=st.sampled_from([None, 0.5, 2.5, 4.5]),
)
def test_drawn_decision_sequences(ops, failure_policy, fail_at):
    want = _replay(ReferenceWalksSimulator, ops, failure_policy, fail_at)
    got = _replay(CheckedSimulator, ops, failure_policy, fail_at)
    assert got == want
