"""Equivalence of the engine's event loop and the seed's full-scan loop.

The engine (active-job table + lazily invalidated completion-time min-heap +
busy-node refcounts) must be *byte-identical* to the seed semantics.  The
seed's full-dictionary-scan loop lived on behind
``SimulationConfig(legacy_event_loop=True)`` until PR 12 removed it; its
outputs over seeded Lublin traces under all nine paper algorithms were
frozen, at commit 461bd72, in ``golden/engine_reference.json``.  The single
remaining loop is held to that file without any tolerance; further cases
exercise the lazy heap invalidation on migration and preemption directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.core.allocation import AllocationDecision
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobState
from repro.core.penalties import ReschedulingPenaltyModel
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import (
    BATCH_ALGORITHMS,
    PAPER_ALGORITHMS,
    create_scheduler,
)
from repro.traces.lublin import LublinWorkloadGenerator

from ..conftest import make_job

#: sha256 of each case's canonical fingerprint, produced by the removed
#: reference loop.  There is deliberately no regeneration script: the fast
#: loop is not its own reference.
REFERENCE = json.loads(
    (Path(__file__).parent / "golden" / "engine_reference.json").read_text(
        encoding="utf-8"
    )
)["cases"]

#: (algorithm, cluster nodes, trace length, seed, penalty seconds) — DFRS
#: schedulers are far more expensive per event than the batch ones, so they
#: get smaller traces to keep the tier-1 suite fast.
REFERENCE_CASES = [
    (algorithm, nodes, num_jobs, seed, 300.0)
    for algorithm in PAPER_ALGORITHMS
    for nodes, num_jobs in [(32, 120) if algorithm in BATCH_ALGORITHMS else (16, 60)]
    for seed in (11, 42)
] + [
    ("easy", 16, 50, 7, 0.0),
    ("dynmcb8-asap-per-600", 16, 50, 7, 0.0),
    ("greedy", 16, 60, 3, 300.0),
]


def _fingerprint(result):
    """Every externally observable field of a SimulationResult, exactly
    (never the wall-clock ``scheduler_times``)."""
    return (
        result.algorithm,
        result.makespan,
        result.idle_node_seconds,
        result.scheduler_job_counts,
        [
            (
                record.spec.job_id,
                record.first_start_time,
                record.completion_time,
                record.preemptions,
                record.migrations,
            )
            for record in result.jobs
        ],
        (
            result.costs.preemption_count,
            result.costs.migration_count,
            result.costs.preemption_gb,
            result.costs.migration_gb,
        ),
    )


@pytest.mark.parametrize("algorithm,nodes,num_jobs,seed,penalty", REFERENCE_CASES)
def test_byte_identical_to_reference_loop(algorithm, nodes, num_jobs, seed, penalty):
    cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
    workload = LublinWorkloadGenerator(cluster).generate(num_jobs, seed=seed)
    simulator = Simulator(
        cluster,
        create_scheduler(algorithm),
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty)),
    )
    canonical = json.dumps(
        _fingerprint(simulator.run(workload.jobs)), separators=(",", ":")
    )
    key = f"{algorithm}/nodes{nodes}/jobs{num_jobs}/seed{seed}/penalty{penalty:g}"
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == REFERENCE[key]


class ScriptedScheduler(Scheduler):
    """Scheduler whose behaviour is driven by a user-supplied callback."""

    name = "scripted"

    def __init__(self, callback):
        self._callback = callback

    def schedule(self, context):
        return self._callback(context)


class TestLazyHeapInvalidation:
    def _simulator(self, callback, *, nodes=4, penalty=0.0):
        cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
        return Simulator(
            cluster,
            ScriptedScheduler(callback),
            SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty)),
        )

    def test_migration_requeues_and_invalidates(self):
        """A migration pushes a fresh heap entry; the stale one is skipped."""

        def migrate_at_wakeup(context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                nodes = [1] if context.is_wakeup else [0]
                decision.set(view.job_id, nodes, 1.0)
            if not context.is_wakeup:
                decision.request_wakeup(50.0)
            return decision

        simulator = self._simulator(migrate_at_wakeup, penalty=30.0)
        result = simulator.run([make_job(0, runtime=100.0)])
        record = result.jobs[0]
        assert record.migrations == 1
        # 100s of work + 30s migration penalty, no progress lost.
        assert record.completion_time == pytest.approx(130.0)
        # The stale pre-migration entry was lazily discarded: the heap holds
        # no live entries once the simulation has drained.
        assert math.isinf(simulator._next_completion_time())

    def test_preemption_invalidates_without_requeue(self):
        """A preempted job has no completion; its heap entry goes stale and
        the engine relies on the requested wake-up instead."""
        seen_states = []

        def preempt_then_resume(context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                seen_states.append((context.time, view.state))
                if context.time < 50.0:
                    decision.set(view.job_id, [0], 1.0)
                    decision.request_wakeup(50.0)
                elif view.state is JobState.PAUSED or context.time >= 100.0:
                    decision.set(view.job_id, [0], 1.0)
                elif view.state is JobState.RUNNING:
                    decision.request_wakeup(100.0)
            return decision

        simulator = self._simulator(preempt_then_resume)
        result = simulator.run([make_job(0, runtime=100.0)])
        record = result.jobs[0]
        assert record.preemptions == 1
        # 50s progress, 50s paused, then the remaining 50s.
        assert record.completion_time == pytest.approx(150.0)
        assert (50.0, JobState.RUNNING) in seen_states

    def test_yield_shrink_pushes_new_completion(self):
        """Changing only the yield re-predicts the completion instant."""

        def shrink_at_wakeup(context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                decision.set(view.job_id, [0], 0.5 if context.is_wakeup else 1.0)
            if not context.is_wakeup:
                decision.request_wakeup(50.0)
            return decision

        simulator = self._simulator(shrink_at_wakeup)
        result = simulator.run([make_job(0, runtime=100.0)])
        # 50s at yield 1.0 + 100s at yield 0.5.
        assert result.jobs[0].completion_time == pytest.approx(150.0)

    def test_stale_entries_accumulate_then_drain(self):
        """Repeated reallocations leave stale heap entries behind; they are
        discarded lazily and never surface as events."""
        bounces = 10

        def bounce(context):
            decision = AllocationDecision()
            for view in context.jobs.values():
                tick = int(context.time // 10.0)
                decision.set(view.job_id, [tick % 2], 1.0)
            if context.time < 10.0 * bounces:
                decision.request_wakeup(context.time + 10.0)
            return decision

        simulator = self._simulator(bounce)
        result = simulator.run([make_job(0, runtime=10.0 * bounces + 50.0)])
        record = result.jobs[0]
        assert record.migrations == bounces
        assert record.completion_time == pytest.approx(10.0 * bounces + 50.0)
        assert math.isinf(simulator._next_completion_time())


class TestIncrementalBusyNodes:
    def test_refcounts_drain_to_zero(self):
        def run_all(context):
            decision = AllocationDecision()
            node = 0
            for view in context.jobs.values():
                decision.set(view.job_id, [node % 4], 1.0)
                node += 1
            return decision

        cluster = Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0)
        simulator = Simulator(cluster, ScriptedScheduler(run_all))
        simulator.run([make_job(i, runtime=50.0 + i, mem=0.2) for i in range(4)])
        assert simulator._busy_count == 0
        assert simulator._node_refcount == {}
        assert simulator._active == {}
