"""A decision that fails leaves the engine as it was before the scheduler ran.

A wrapped scheduler injects one fault into a generated scenario, at the first
event where it applies: the scheduler raises; an entry partway through the
decision is malformed (one task too many); or a task lands on a node that
went down at this event, as if the decision had been made just before the
failure.  The run must stop with that error, and the RUNNING index, the
busy-node refcounts, the completion heap and the active table must equal
their values before the scheduler was invoked.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from repro.core.allocation import JobAllocation
from repro.core.engine import Simulator
from repro.exceptions import AllocationError, SimulationError
from repro.schedulers.registry import create_scheduler

from .strategies import draws
from .test_scenarios import _OUTAGE, _OUTAGE_JOBS, Draw, explicit_config, refused_up_front


class Injected(RuntimeError):
    pass


class FaultyScheduler:
    def __init__(self, inner, fault):
        self.inner, self.fault, self.fired = inner, fault, False

    def __getattr__(self, name):  # name, flags, start() of the wrapped scheduler
        return getattr(self.inner, name)

    def schedule(self, context):
        decision = self.inner.schedule(context)
        entries = list(decision.running.items())
        if self.fired or not entries:
            return decision
        if self.fault == "scheduler raises":
            self.fired = True
            raise Injected()
        if self.fault == "invalid entry partway" and len(entries) > 1:
            job_id, alloc = entries[1]
            nodes = alloc.nodes + alloc.nodes[:1]
            entries[1] = (job_id, JobAllocation(nodes, alloc.yield_value))
        elif self.fault == "task on a down node" and context.down_nodes:
            job_id, alloc = entries[-1]
            nodes = (min(context.down_nodes),) + alloc.nodes[1:]
            entries[-1] = (job_id, JobAllocation(nodes, alloc.yield_value))
        else:
            return decision
        self.fired = True
        decision.running = dict(entries)
        return decision


class SnapshotSimulator(Simulator):
    def state(self):
        jobs = [
            (job_id, job.state, job.assignment, job.current_yield, job.remaining_work)
            for job_id, job in self._active.items()
        ]
        heap = sorted(self._completion_heap)
        return list(self._running), dict(self._node_refcount), self._busy_count, heap, jobs

    def _invoke_scheduler(self, *triggers):
        self.before = self.state()
        return super()._invoke_scheduler(*triggers)


@pytest.mark.parametrize(
    "fault", ["scheduler raises", "invalid entry partway", "task on a down node"]
)
@settings(max_examples=30)
@given(draw=draws())
@example(draw=Draw(_OUTAGE_JOBS, algorithm="fcfs", **_OUTAGE))
def test_failed_decision_leaves_engine_state_untouched(fault, draw):
    cluster = draw.platform.build_cluster()
    specs = list(draw.source.jobs(cluster))
    scheduler = FaultyScheduler(create_scheduler(draw.algorithm), fault)
    engine = SnapshotSimulator(cluster, scheduler, explicit_config(draw))
    try:
        engine.run(specs)
    except (Injected, AllocationError):
        assert scheduler.fired
        assert engine.state() == engine.before
    except SimulationError as error:
        if not refused_up_front(error):
            raise
    else:
        assert not scheduler.fired, "the engine applied a faulty decision"
