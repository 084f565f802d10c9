"""Hypothesis strategies for small whole-system scenarios.

``REGISTRY_STRATEGIES`` holds one strategy per registered kind, keyed by the
label of its :class:`repro.registry.Registry`; the census in
``test_scenarios.py`` fails when a registry or kind has no entry.  A
:class:`Draw` combines a trace (source + transform chain), a platform with
its node-event source and failure policy, the fidelity models, an admission
policy, a telemetry spec and an algorithm name — at most ``MAX_NODES`` nodes
and ``MAX_JOBS`` jobs, so every oracle can afford to run each draw a few times.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Tuple

from hypothesis import strategies as st

from repro import metrics, models, platform, serve, traces
from repro.campaign import scenario
from repro.campaign.collectors import available_collectors
from repro.core.cluster import Cluster
from repro.core.job import JobSpec
from repro.devtools.rules import available_rules
from repro.schedulers.registry import _PERIODIC_FACTORIES, available_algorithms, create_scheduler
from repro.traces import transforms

MAX_NODES = 12
MAX_JOBS = 25

# The file-backed kinds read these; they live as long as the test process.
_FILES = Path(tempfile.mkdtemp(prefix="repro-generated-"))
SWF_PATH = _FILES / "tiny.swf"
SWF_PATH.write_text(
    "; Version: 2.2\n"
    "1 0 -1 600 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"
    "2 30 -1 900 2 -1 -1 2 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"
)
TRACE_JSON_PATH = traces.write_trace_json(
    traces.Workload(
        "two-serial",
        Cluster(1),
        [JobSpec(0, 0.0, 1, 1.0, 0.25, 300.0), JobSpec(1, 60.0, 1, 0.5, 0.25, 120.0)],
    ),
    _FILES / "trace.json",
)
NODE_EVENTS_PATH = _FILES / "events.json"
platform.write_node_events_json(
    [platform.NodeEvent(10.0, 0, "down"), platform.NodeEvent(20.0, 0, "up")], NODE_EVENTS_PATH
)

seeds = st.integers(0, 2**16)
few_jobs = st.integers(5, MAX_JOBS)


def _generators(num_jobs):
    return {
        "lublin": st.builds(traces.LublinTraceSource, num_jobs=num_jobs, seed=seeds),
        "downey": st.builds(
            traces.DowneyTraceSource,
            num_jobs=num_jobs,
            seed=seeds,
            mean_interarrival_seconds=st.sampled_from([60.0, 900.0]),
            max_runtime_seconds=st.just(4 * 3600.0),
        ),
        "diurnal-poisson": st.builds(
            traces.DiurnalPoissonTraceSource,
            num_jobs=num_jobs,
            seed=seeds,
            mean_interarrival_seconds=st.sampled_from([30.0, 360.0]),
            runtime_log_mean=st.sampled_from([5.0, 7.0]),
            max_runtime_seconds=st.just(6 * 3600.0),
        ),
        "hpc2n-like": st.builds(
            traces.Hpc2nLikeTraceSource, weeks=st.just(1), jobs_per_week=num_jobs, seed=seeds
        ),
        "json": st.just(traces.JsonTraceSource(path=str(TRACE_JSON_PATH))),
        "swf": st.just(traces.SwfTraceSource(path=str(SWF_PATH))),
    }


TRANSFORMS = {
    "bootstrap": st.builds(transforms.BootstrapResample, num_jobs=few_jobs, seed=seeds),
    "filter": st.builds(
        transforms.FilterJobs, max_runtime_seconds=st.sampled_from([None, 3600.0])
    ),
    "head": st.builds(transforms.Head, count=few_jobs),
    "perturb": st.builds(
        transforms.Perturb,
        runtime_factor=st.sampled_from([0.0, 0.3]),
        width_factor=st.sampled_from([0.0, 0.5]),
        seed=seeds,
    ),
    "rescale-load": st.builds(transforms.RescaleLoad, target_load=st.sampled_from([0.3, 0.7, 1.2])),
    "scale-interarrival": st.builds(
        transforms.ScaleInterarrival, factor=st.sampled_from([0.5, 2.0])
    ),
    "time-window": st.builds(transforms.TimeWindow, end=st.sampled_from([None, 7200.0])),
}


@st.composite
def _transformed(draw, base):
    # A trailing head keeps every chain within MAX_JOBS (bootstrap can grow one).
    steps = draw(st.lists(st.one_of(*TRANSFORMS.values()), min_size=1, max_size=3))
    return draw(base).transformed(*steps, transforms.Head(count=MAX_JOBS))


TRACE_SOURCES = {
    **_generators(few_jobs),
    "concat": st.builds(
        lambda sources, gap: traces.ConcatTraceSource(sources=tuple(sources), gap_seconds=gap),
        st.lists(
            st.one_of(*_generators(st.integers(3, MAX_JOBS // 2)).values()), min_size=1, max_size=2
        ),
        st.sampled_from([0.0, 600.0]),
    ),
    "transform": _transformed(st.one_of(*_generators(few_jobs).values())),
}


@st.composite
def _inline_events(draw):
    """Down/up pairs on nodes 0 and 1, some of them before any job arrives."""
    rows = []
    for node in draw(st.lists(st.integers(0, 1), min_size=1, max_size=2, unique=True)):
        down = draw(st.sampled_from([0.0, 50.0, 600.0, 3000.0]))
        rows += [(down, node, "down"), (down + draw(st.sampled_from([60.0, 1800.0])), node, "up")]
    return platform.TraceNodeEventSource(events_list=tuple(sorted(rows)))


_failure_rates = dict(
    mtbf_seconds=st.sampled_from([3600.0, 20000.0]),
    mttr_seconds=st.sampled_from([60.0, 1800.0]),
    horizon_seconds=st.just(86400.0),
    seed=seeds,
)
NODE_EVENT_SOURCES = {
    "exponential": st.builds(platform.ExponentialFailureSource, **_failure_rates),
    "weibull": st.builds(
        platform.WeibullFailureSource, shape=st.sampled_from([0.7, 1.5]), **_failure_rates
    ),
    "trace": _inline_events(),
    "json": st.just(platform.JsonNodeEventSource(path=str(NODE_EVENTS_PATH))),
}
_events = dict(
    events=st.one_of(st.none(), *NODE_EVENT_SOURCES.values()),
    failure_policy=st.sampled_from(["resubmit", "migrate"]),
)
_class_rows = st.tuples(
    st.integers(2, MAX_NODES // 2),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([None, 250.0]),
)
PLATFORMS = {
    "homogeneous": st.builds(
        platform.HomogeneousPlatform, nodes=st.integers(2, MAX_NODES), **_events
    ),
    "node-classes": st.builds(
        platform.NodeClassesPlatform,
        classes=st.lists(_class_rows, min_size=1, max_size=2).map(
            lambda rows: tuple(
                platform.NodeClass(f"c{i}", *row[:3], busy_watts=row[3])
                for i, row in enumerate(rows)
            )
        ),
        **_events,
    ),
}

OVERHEAD_MODELS = {
    "none": st.just(models.NoOverheadModel()),
    "constant": st.builds(
        models.ConstantOverheadModel,
        preemption_seconds=st.sampled_from([0.0, 5.0]),
        migration_seconds=st.just(10.0),
    ),
    "memory-linear": st.just(
        models.MemoryLinearOverheadModel(seconds_per_gb=0.5, events=("preemption", "checkpoint"))
    ),
    "checkpoint-bandwidth": st.just(
        models.CheckpointBandwidthOverheadModel(
            bandwidth_gb_per_sec=2.0, class_bandwidth={"c0": 0.5}
        )
    ),
}
EXECUTION_TIME_MODELS = {
    "exact": st.just(models.ExactExecutionTimeModel()),
    "table": st.just(
        models.TableExecutionTimeModel(breakpoints=((600.0, 1.1), (7200.0, 1.02)), default=1.0)
    ),
    "stochastic": st.builds(
        models.StochasticExecutionTimeModel,
        seed=seeds,
        min_multiplier=st.just(0.8),
        max_multiplier=st.just(1.3),
    ),
}
ADMISSION_POLICIES = {
    "accept-all": st.just(serve.AcceptAllPolicy()),
    "bounded-queue": st.builds(
        serve.BoundedQueuePolicy,
        max_pending=st.integers(1, 4),
        mode=st.sampled_from(["reject", "shed"]),
    ),
    "load-threshold": st.builds(serve.LoadThresholdPolicy, max_load=st.sampled_from([0.5, 1.5])),
    "token-bucket": st.builds(
        serve.TokenBucketPolicy,
        rate=st.sampled_from([0.01, 1.0]),
        burst=st.sampled_from([1.0, 4.0]),
    ),
}
#: Telemetry spec forms, one branch per ``type`` (``repro.obs.telemetry_spec``).
TELEMETRY_SPECS = st.one_of(
    st.just({"type": "off"}),
    st.sampled_from([{"type": "stats"}, {"type": "stats", "flight": 64}]),
    st.just({"type": "tracing", "max_spans": 1000, "flight": 64}),
)


def _fed(accumulator, values):
    """``accumulator`` after ingesting ``values`` through its own feed method."""
    for index, value in enumerate(values):
        if isinstance(accumulator, metrics.TopK):
            accumulator.add(value, index)
        elif isinstance(accumulator, metrics.TimeWeightedValue):
            accumulator.add_segment(value, duration=10.0)
        elif isinstance(accumulator, metrics.JobMetricsAccumulator):
            accumulator.observe(job_id=index, stretch=1.0 + value, turnaround=value, wait=value)
        else:
            accumulator.update([value])
    return accumulator


ACCUMULATORS = {
    kind: st.builds(_fed, st.builds(factory), st.lists(st.floats(0.0, 1e4), max_size=6))
    for kind, factory in {
        "exact": metrics.ExactDistribution,
        "job-metrics": metrics.JobMetricsAccumulator,
        "moments": metrics.Moments,
        "quantile-sketch": metrics.QuantileSketch,
        "sum": metrics.SumAccumulator,
        "time-weighted": metrics.TimeWeightedValue,
        "top-k": lambda: metrics.TopK(k=3),
    }.items()
}

WORKLOAD_SOURCES = {
    "lublin": st.builds(
        scenario.LublinSource, num_traces=st.integers(1, 3), num_jobs=few_jobs, seed_base=seeds
    ),
    "hpc2n-like": st.builds(
        scenario.Hpc2nLikeSource, weeks=st.just(1), jobs_per_week=few_jobs, seed_base=seeds
    ),
    "swf": st.builds(
        scenario.SwfSource,
        path=st.just(str(SWF_PATH)),
        segment_seconds=st.sampled_from([None, 3600.0]),
    ),
    "generator": st.builds(
        scenario.GeneratorSource,
        model=st.sampled_from(["lublin", "downey", "diurnal-poisson"]),
        instances=st.integers(1, 3),
        seed_base=seeds,
        options=st.builds(lambda n: {"num_jobs": n}, few_jobs),
    ),
    "transform": st.builds(scenario.TransformSource, source=TRACE_SOURCES["transform"]),
    "custom": st.just(scenario.CustomSource(factory=lambda cluster: [], key="generated")),
}

#: Label of every registry -> kind -> strategy.  Name-only registries (no
#: spec form) draw the kind name itself.
REGISTRY_STRATEGIES = {
    "trace source": TRACE_SOURCES,
    "trace transform": TRANSFORMS,
    "platform": PLATFORMS,
    "node event source": NODE_EVENT_SOURCES,
    "overhead model": OVERHEAD_MODELS,
    "execution-time model": EXECUTION_TIME_MODELS,
    "admission policy": ADMISSION_POLICIES,
    "accumulator": ACCUMULATORS,
    "workload source": WORKLOAD_SOURCES,
    "metric collector": {name: st.just(name) for name in available_collectors()},
    "rule": {code: st.just(code) for code in available_rules()},
}


def one_of_kinds(label):
    return st.one_of(*REGISTRY_STRATEGIES[label].values())


@dataclass(frozen=True)
class Draw:
    """One generated scenario; the platform carries events and failure policy."""

    source: Any
    platform: Any
    algorithm: str
    repack_on_failure: bool = False
    overhead: Any = models.NoOverheadModel()
    execution_time: Any = models.ExactExecutionTimeModel()
    admission: Any = serve.AcceptAllPolicy()
    telemetry: Any = None
    penalty_seconds: float = 0.0
    #: Online-driver cancels: ``(step, index into the trace's job list)``.
    cancels: Tuple[Tuple[int, int], ...] = ()


@st.composite
def draws(draw):
    # Any registered algorithm; a periodic one may carry a ``-<seconds>`` suffix.
    algorithm = draw(st.sampled_from(available_algorithms()))
    if algorithm in _PERIODIC_FACTORIES and draw(st.booleans()):
        algorithm += f"-{draw(st.sampled_from([300, 1200, 3600]))}"
    machine = draw(one_of_kinds("platform"))
    if not create_scheduler(algorithm).resumes_paused_jobs:
        # "migrate" checkpoints victims as paused jobs this family never resumes.
        machine = replace(machine, failure_policy="resubmit")
    source = draw(one_of_kinds("trace source"))
    if draw(st.booleans()):
        source = draw(_transformed(st.just(source)))
    return Draw(
        source=source,
        platform=machine,
        algorithm=algorithm,
        repack_on_failure=draw(st.booleans()),
        overhead=draw(one_of_kinds("overhead model")),
        execution_time=draw(one_of_kinds("execution-time model")),
        admission=draw(one_of_kinds("admission policy")),
        telemetry=draw(TELEMETRY_SPECS),
        penalty_seconds=draw(st.sampled_from([0.0, 300.0])),
        cancels=tuple(
            draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, MAX_JOBS)), max_size=3))
        ),
    )
