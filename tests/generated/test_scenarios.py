"""One property over generated scenarios, three oracles on every draw.

(i)   ``InvariantCheckingObserver`` at every event of a checked ``run``, whose
      engine re-checks every decision it kept without validating, re-derives
      its RUNNING index, node refcounts, live usage and down set, and holds
      every scheduler snapshot (reused waiting views included) to the full
      field-by-field rebuild, while every yield-search probe refused by
      arithmetic is packed to prove it infeasible; conservation of jobs and
      costs; a checked online run with drawn cancels; a replay through the
      drawn admission policy.
(ii)  ``run`` of the shuffled specs ≡ ``run_stream`` ≡ service replay on
      the whole observer event stream (every field, floats by ``hex``),
      cost bits and job records; every view (placement log, flight ring,
      recorders) is a projection of that stream.  ``run`` takes the
      draw's ``Scenario`` config (telemetry on, default models demoted to
      None); the other two take the drawn models as-is and no telemetry.
      A draw whose algorithm reuses yield searches across repacks is also
      streamed on the memo-free reference repack, which must emit the same
      stream: the three drivers share the memo, so (ii) alone cannot see it.
(iii) every drawn component round-trips through its registry, the telemetry
      spec is canonical, and the scenario round-trips through its spec with
      a stable hash.

Shrunk counter-examples are kept as ``@example``s; the recipes of the
hand-picked fixtures this property replaced run as seeded cases over their
algorithms.
"""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from itertools import groupby
from operator import attrgetter
from unittest.mock import patch

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import repro
from repro.campaign.scenario import (
    CustomSource,
    Scenario,
    TransformSource,
    scenario_from_dict,
    scenario_hash,
)
from repro.core.allocation import validate_decision
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.invariants import InvariantCheckingObserver
from repro.core.job import JobSpec, JobState
from repro.core.penalties import ReschedulingPenaltyModel
from repro.exceptions import ConfigurationError, SimulationError
from repro.metrics import accumulator_from_dict
from repro.models import CheckpointBandwidthOverheadModel
from repro.obs import telemetry_spec
from repro.packing import yield_search
from repro.platform import (
    HomogeneousPlatform,
    NodeClass,
    ExponentialFailureSource,
    NodeClassesPlatform,
    TraceNodeEventSource,
)
from repro.registry import all_registries
from repro.schedulers.registry import DFRS_ALGORITHMS, PAPER_ALGORITHMS, create_scheduler
from repro.serve import SchedulerService
from repro.traces import (
    DiurnalPoissonTraceSource,
    LublinTraceSource,
    LublinWorkloadGenerator,
    MemoryRequirementModel,
    Workload,
    scale_to_load,
)
from repro.traces.source import WorkloadTraceSource
from repro.traces.transforms import Head, RescaleLoad, TransformedSource

from ..core.test_engine_snapshots import check_snapshot
from ..schedulers.reference_repack import reference_scheduler, uses_repack_memo
from .strategies import MAX_JOBS, REGISTRY_STRATEGIES, Draw, draws

for _info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_info.name)  # every registry exists once imported
REGISTRIES = {registry.label: registry for registry in all_registries()}
#: Seams whose loader restores state as well as options.
LOADERS = {"accumulator": accumulator_from_dict}


def assert_round_trips(label, kind, value):
    registry = REGISTRIES[label]
    if registry.base is None:  # name-only registries: the kind names a factory
        assert registry.create(kind) is not None
        return
    assert value.kind == kind, f"{label}: {kind!r} kind attribute drifted"
    spec = value.to_dict()
    assert spec["type"] == kind and json.loads(json.dumps(spec)) == spec, (label, spec)
    load = LOADERS.get(label, registry.from_dict)
    if getattr(value, "spec_expressible", True):
        assert load(spec).to_dict() == spec, f"{label}: {kind!r} does not round-trip"
    else:
        with pytest.raises(ConfigurationError):
            load(spec)


def test_census_every_registry_and_kind_has_a_strategy():
    assert set(REGISTRY_STRATEGIES) == set(REGISTRIES)
    for label, kinds in REGISTRY_STRATEGIES.items():
        assert set(kinds) == set(REGISTRIES[label].available()), f"{label}: table out of date"


@pytest.mark.parametrize("label", sorted(REGISTRY_STRATEGIES))
@settings(max_examples=5)
@given(data=st.data())
def test_every_kind_round_trips(label, data):
    for kind, strategy in sorted(REGISTRY_STRATEGIES[label].items()):
        assert_round_trips(label, kind, data.draw(strategy, label=kind))


# -- oracle (i): the checked engine ----------------------------------------------
class CheckedSimulator(Simulator):
    """Re-checks the engine's shortcuts and incremental state at every event."""

    def _keeps_validated_allocations(self, decision):
        kept = super()._keeps_validated_allocations(decision)
        if kept:
            live = {i: (job.assignment, job.current_yield) for i, job in self._running.items()}
            for job_id, alloc in decision.running.items():
                assert live.get(job_id) == (alloc.nodes, alloc.yield_value), job_id
            specs = {job_id: job.spec for job_id, job in self._active.items()}
            usage = self.cluster.usage(self._down_nodes)
            validate_decision(decision, specs, self.cluster, usage=usage)
        return kept

    def _build_context(self, submitted, completed, is_wakeup):
        context = super()._build_context(submitted, completed, is_wakeup)
        check_snapshot(self, context)
        return context

    def _collect_triggers(self, now):
        ranks = {job_id: job.arrival_rank for job_id, job in self._running.items()}
        triggers = super()._collect_triggers(now)
        done = [ranks[job_id] for job_id in triggers[1]]
        assert done == sorted(done), "completions out of arrival order"
        return triggers

    def _apply_decision(self, decision):
        super()._apply_decision(decision)
        running = [job for job in self._active.values() if job.state is JobState.RUNNING]
        assert sorted(self._running) == sorted(job.job_id for job in running)
        tasks = Counter(node for job in running for node in job.assignment)
        assert self._node_refcount == tasks and self._busy_count == len(tasks)
        # The live usage stays within CAPACITY_EPSILON and off down nodes.
        self.cluster.usage(self._down_nodes).add_jobs(
            (job.assignment, job.spec.cpu_need, job.spec.mem_requirement, job.current_yield)
            for job in running
        )
        checker = next(o for o in self._observers if isinstance(o, InvariantCheckingObserver))
        assert checker._down == self._down_nodes, "observers' down set left the engine's"


@contextmanager
def refused_probes_fail_on_the_packer():
    """Every probe ``cpu_volume_exceeded`` refuses must also fail when packed."""
    verdicts = []
    original_probe, original_volume = yield_search._probe, yield_search.cpu_volume_exceeded

    def volume(*args):
        verdicts.append(original_volume(*args))
        return verdicts[-1]

    def probe(jobs, yields, num_nodes, packer, capacities):
        result = original_probe(jobs, yields, num_nodes, packer, capacities)
        if verdicts.pop():
            cpus = [job.cpu_requirement(yields[job.job_id]) for job in jobs]
            assert not packer(jobs, cpus, num_nodes, capacities).success, (
                "a feasible probe was refused"
            )
        return result

    with patch.object(yield_search, "cpu_volume_exceeded", volume):
        with patch.object(yield_search, "_probe", probe):
            yield


# -- the draw's configurations --------------------------------------------------
def scenario_of(draw):
    source = draw.source
    if not source.spec_expressible:
        workload = CustomSource(factory=lambda cluster: [source.materialize(cluster)])
    elif isinstance(source, TransformedSource):
        workload = TransformSource(source=source)
    else:
        workload = TransformSource(source=source.transformed(Head(count=MAX_JOBS)))
    return Scenario(
        name="generated",
        source=workload,
        algorithms=(draw.algorithm,),
        platform=draw.platform,
        penalty_seconds=draw.penalty_seconds,
        repack_on_failure=draw.repack_on_failure,
        models={"overhead": draw.overhead, "execution_time": draw.execution_time},
        telemetry=draw.telemetry,
        collectors=("stretch", "costs", "invariants"),
    )


def explicit_config(draw):
    platform = draw.platform
    return SimulationConfig(
        penalty_model=ReschedulingPenaltyModel(draw.penalty_seconds),
        node_events=platform.events,
        failure_policy=platform.failure_policy,
        repack_on_failure=draw.repack_on_failure,
        overhead_model=draw.overhead,
        execution_time_model=draw.execution_time,
        node_class_names=platform.node_class_names(),
        node_power=platform.power_vectors(),
    )


def refused_up_front(error):
    """The engine refuses an empty or infeasible trace the same way on every path."""
    reasons = ("empty workload", "would never start it", "permanently infeasible")
    return any(reason in str(error) for reason in reasons)


def bits(value):
    """A dataclass's fields with every float as its exact hex form."""
    values = (getattr(value, field.name) for field in fields(value))
    return [float.hex(v) if isinstance(v, float) else v for v in values]


class EventLog(list):
    """Every event the engine emits, in order."""

    on_event = list.append

    def bits(self):
        return [[float.hex(v) if isinstance(v, float) else v for v in e] for e in self]


def online_with_cancels(draw, cluster, specs):
    engine = CheckedSimulator(
        cluster,
        create_scheduler(draw.algorithm),
        explicit_config(draw),
        observers=[InvariantCheckingObserver()],
    )
    engine.online_begin(specs[0].submit_time)
    for spec in specs:
        engine.online_submit(spec)
    cancels = dict(draw.cancels)
    step = 0
    while not math.isinf(engine.online_step()):
        step += 1
        if step in cancels:
            engine.online_cancel(specs[cancels[step] % len(specs)].job_id)
    engine.online_finalize()  # the checker raises on a job it never saw end


def _jobs(*rows):
    return WorkloadTraceSource(Workload("recipe", Cluster(1), [JobSpec(*row) for row in rows]))


def _down(nodes, *events):
    return HomogeneousPlatform(nodes=nodes, events=TraceNodeEventSource(events))


_OUTAGE = dict(platform=_down(2, (50, 1, "down"), (500, 1, "up")))
_OUTAGE_JOBS = _jobs(
    (0, 0.0, 1, 1.0, 0.1, 1000.0), (1, 100.0, 2, 1.0, 0.1, 1000.0), (2, 120.0, 1, 1.0, 0.1, 10.0)
)
_TWO_RUNNING = _jobs((0, 0.0, 1, 1.0, 0.1, 100.0), (1, 0.0, 1, 1.0, 0.1, 100.0))
_DIURNAL = dict(
    seed=11,
    mean_interarrival_seconds=90.0,
    runtime_log_mean=5.0,
    runtime_log_sigma=1.0,
    max_runtime_seconds=7200.0,
    serial_fraction=0.6,
)
_HEAVY = LublinWorkloadGenerator(
    Cluster(8), memory_model=MemoryRequirementModel(small_probability=0.2)
).generate(25, seed=31)
_EIGHT, _SIXTEEN = HomogeneousPlatform(nodes=8), HomogeneousPlatform(nodes=16)
_SIXTY = LublinTraceSource(num_jobs=60, seed=2010)


@given(draw=draws())
# EASY / conservative in an outage: the queue head is wider than the nodes up.
@example(draw=Draw(_OUTAGE_JOBS, algorithm="easy", **_OUTAGE))
@example(draw=Draw(_OUTAGE_JOBS, algorithm="conservative", **_OUTAGE))
# A failure-kill restarts job 0 so that it completes with job 1, which
# started before it: the completion scan must still go in arrival order.
@example(draw=Draw(
    _jobs((0, 0.0, 1, 1.0, 0.1, 80.0), (1, 0.0, 1, 1.0, 0.1, 100.0)),
    _down(2, (10, 0, "down"), (20, 0, "up")),
    "fcfs",
))
# Node 3 of 4 down from t=0, first job at t=100: announced at the start.
@example(draw=Draw(
    _jobs((0, 100.0, 3, 1.0, 0.3, 500.0), (1, 150.0, 2, 0.5, 0.3, 300.0)),
    _down(4, (0, 3, "down"), (5000, 3, "up")),
    "greedy-pmtn-migr",
))
# Cancel a RUNNING job online: observers must hear of it.
@example(draw=Draw(_TWO_RUNNING, HomogeneousPlatform(nodes=4), "fcfs", cancels=((1, 1),)))
@example(draw=Draw(
    _TWO_RUNNING, HomogeneousPlatform(nodes=4), "greedy-pmtn-migr", cancels=((1, 1),)
))
# A one-class platform keeps its class names on every leg, so the class-keyed
# overhead model charges c0's bandwidth in ``run`` as in ``run_stream``.
@example(draw=Draw(
    LublinTraceSource(num_jobs=5, seed=1),
    NodeClassesPlatform(classes=(NodeClass("c0", 2, 1.0, 1.0),)),
    "dynmcb8",
    overhead=CheckpointBandwidthOverheadModel(
        bandwidth_gb_per_sec=2.0, class_bandwidth={"c0": 0.5}
    ),
))
def test_generated_scenario(draw):
    check_scenario(draw)


def _lublin(seed, load=0.8):
    return LublinTraceSource(num_jobs=25, seed=seed).transformed(RescaleLoad(target_load=load))


def _diurnal(num_jobs):
    return DiurnalPoissonTraceSource(num_jobs=num_jobs, **_DIURNAL)


#: The hand-picked fixtures this property replaced, each over its algorithms:
#: ``(id, Draw fields but the algorithm, algorithms)``.
RECIPES = [
    *[
        (f"lublin25-s{seed}", dict(source=_lublin(seed), penalty_seconds=300.0), DFRS_ALGORITHMS)
        for seed in (11, 12, 41)
    ],
    ("lublin25-s21-free", dict(source=_lublin(21)), DFRS_ALGORITHMS),
    ("lublin25-s61-light", dict(source=_lublin(61, load=0.2)), ["greedy"]),
    (
        "memory-heavy",
        dict(source=WorkloadTraceSource(scale_to_load(_HEAVY, 0.9)), penalty_seconds=300.0),
        ["greedy-pmtn", "dynmcb8-asap-per-600"],
    ),
    ("diurnal80", dict(source=_diurnal(80), platform=_SIXTEEN), PAPER_ALGORITHMS),
    ("diurnal150", dict(source=_diurnal(150), platform=_SIXTEEN), PAPER_ALGORITHMS),
    (
        "diurnal200",
        dict(
            source=DiurnalPoissonTraceSource(num_jobs=200, seed=5, mean_interarrival_seconds=900.0),
            platform=HomogeneousPlatform(nodes=32),
            penalty_seconds=300.0,
        ),
        ["greedy-pmtn"],
    ),
    (
        "diurnal80-migrate-failures",
        dict(
            source=_diurnal(80),
            platform=HomogeneousPlatform(
                nodes=16,
                events=ExponentialFailureSource(
                    mtbf_seconds=20_000.0, mttr_seconds=2_000.0, horizon_seconds=40_000.0, seed=3
                ),
                failure_policy="migrate",
            ),
        ),
        ["greedy-pmtn-migr"],
    ),
    *[
        (
            f"lublin60-{platform.kind}",
            dict(source=_SIXTY, platform=platform, penalty_seconds=300.0),
            PAPER_ALGORITHMS,
        )
        for platform in (_SIXTEEN, NodeClassesPlatform(classes=(NodeClass("ref", 16),)))
    ],
]


@pytest.mark.parametrize(
    "recipe, algorithm",
    [
        pytest.param(recipe, algorithm, id=f"{name}-{algorithm}")
        for name, recipe, algorithms in RECIPES
        for algorithm in algorithms
    ],
)
def test_replaced_fixture(recipe, algorithm):
    check_scenario(Draw(**{"platform": _EIGHT, **recipe}, algorithm=algorithm))


def check_scenario(draw):
    scenario = scenario_of(draw)
    cluster = draw.platform.build_cluster()
    specs = list(draw.source.jobs(cluster))
    # ``run`` sorts stably by submit time, so jobs submitted together arrive
    # in list order: shuffle everything but that order.
    groups = [list(group) for _, group in groupby(specs, key=attrgetter("submit_time"))]
    random.Random(len(specs)).shuffle(groups)
    shuffled = [spec for group in groups for spec in group]

    def engine(engine_type, config, *observers):
        scheduler = create_scheduler(draw.algorithm)
        return engine_type(scenario.cluster, scheduler, config, observers=list(observers))

    logs = [EventLog() for _ in range(3)]
    try:
        with refused_probes_fail_on_the_packer():
            checked = engine(
                CheckedSimulator, scenario.simulation_config(), InvariantCheckingObserver(), logs[0]
            ).run(shuffled)
    except SimulationError as error:
        if refused_up_front(error):
            reject()
        raise
    # (ii) three drivers, one run.
    streamed = engine(Simulator, explicit_config(draw), logs[1])
    streamed = streamed.run_stream(draw.source.jobs(cluster))
    service = SchedulerService(
        cluster, draw.algorithm, config=explicit_config(draw), observers=[logs[2]]
    )
    report = service.replay(draw.source)
    replayed = report.result
    assert report.submitted == report.accepted == report.completions == len(specs)
    assert report.rejected == report.shed == 0
    assert report.sim_seconds == replayed.makespan
    assert logs[0].bits() == logs[1].bits() == logs[2].bits()
    assert bits(checked.costs) == bits(streamed.costs) == bits(replayed.costs)
    assert checked.jobs == streamed.jobs == replayed.jobs
    assert len({float.hex(result.makespan) for result in (checked, streamed, replayed)}) == 1
    if uses_repack_memo(draw.algorithm):
        unmemoised = EventLog()
        reference = Simulator(
            scenario.cluster, reference_scheduler(draw.algorithm), explicit_config(draw),
            observers=[unmemoised],
        ).run_stream(draw.source.jobs(cluster))
        assert unmemoised.bits() == logs[1].bits()
        assert bits(reference.costs) == bits(streamed.costs)
    # (i) conservation: every job completes once, never faster than its work
    # allows, and the cost tally agrees with the job records.
    assert sorted(r.spec.job_id for r in checked.jobs) == sorted(s.job_id for s in specs)
    for record in checked.jobs:
        work = record.spec.execution_time * draw.execution_time.execution_multiplier(record.spec)
        assert record.wait_time >= -1e-9 and record.turnaround_time >= work - 1e-6
    costs = checked.costs
    assert costs.preemption_count == sum(record.preemptions for record in checked.jobs)
    assert costs.migration_count == sum(record.migrations for record in checked.jobs)
    assert costs.preemption_count or costs.preemption_gb == 0.0
    assert costs.migration_count or costs.migration_gb == 0.0
    # (i) the online driver with cancels, and admission in front of a replay.
    online_with_cancels(draw, cluster, specs)
    if draw.admission.kind != "accept-all":
        SchedulerService(
            cluster,
            draw.algorithm,
            config=explicit_config(draw),
            admission=draw.admission,
            observers=[InvariantCheckingObserver()],
        ).replay(draw.source)
    # (iii) components and scenario round-trip.
    components = {
        "trace source": draw.source,
        "platform": draw.platform,
        "node event source": draw.platform.events,
        "overhead model": draw.overhead,
        "execution-time model": draw.execution_time,
        "admission policy": draw.admission,
        "workload source": scenario.source,
    }
    for label, value in components.items():
        if value is not None:
            assert_round_trips(label, value.kind, value)
    assert scenario.telemetry is None or telemetry_spec(scenario.telemetry) == scenario.telemetry
    if scenario.source.spec_expressible:
        spec = scenario.to_dict()
        again = scenario_from_dict(json.loads(json.dumps(spec)))
        assert again.to_dict() == spec and scenario_hash(again) == scenario_hash(scenario)
