"""Registry completeness: every registered kind round-trips through its spec.

This is the tier-1 twin of the REG601 static rule: REG601 proves every
spec-expressible class in the subsystem packages is *registered*; this test
proves every *registered* name is live — constructible, serialisable, and
``from_dict(to_dict(x))``-stable — so a registry can neither silently grow a
dangling name nor drift from the ``type`` field its factories emit.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.cluster import Cluster
from repro.core.observers import SimulationObserver
from repro.campaign.collectors import available_collectors, create_collector
from repro.devtools import check_paths
from repro.devtools.registry_audit import RegistryCompletenessRule
from repro.registry import all_registries
from repro.metrics import (
    ExactDistribution,
    FixedHistogram,
    JobMetricsAccumulator,
    Moments,
    QuantileSketch,
    ReservoirSample,
    SumAccumulator,
    TimeWeightedValue,
    TopK,
    accumulator_from_dict,
    available_accumulators,
)
from repro.models import (
    CheckpointBandwidthOverheadModel,
    ConstantOverheadModel,
    ExactExecutionTimeModel,
    MemoryLinearOverheadModel,
    NoOverheadModel,
    StochasticExecutionTimeModel,
    TableExecutionTimeModel,
    available_execution_time_models,
    available_overhead_models,
    execution_time_model_from_dict,
    overhead_model_from_dict,
)
from repro.platform import (
    ExponentialFailureSource,
    HomogeneousPlatform,
    JsonNodeEventSource,
    NodeClass,
    NodeClassesPlatform,
    NodeEvent,
    TraceNodeEventSource,
    WeibullFailureSource,
    available_node_event_sources,
    available_platforms,
    node_event_source_from_dict,
    platform_from_dict,
    write_node_events_json,
)
from repro.schedulers.registry import (
    PAPER_ALGORITHMS,
    available_algorithms,
    create_scheduler,
)
from repro.serve import (
    AcceptAllPolicy,
    BoundedQueuePolicy,
    LoadThresholdPolicy,
    TokenBucketPolicy,
    admission_policy_from_dict,
    available_admission_policies,
)
from repro.obs import (
    NoTelemetry,
    StatsTelemetry,
    TracingTelemetry,
    available_telemetry_configs,
    telemetry_config_from_dict,
)
from repro.traces import (
    ConcatTraceSource,
    DiurnalPoissonTraceSource,
    DowneyTraceSource,
    Hpc2nLikeTraceSource,
    JsonTraceSource,
    LublinTraceSource,
    SwfTraceSource,
    available_trace_sources,
    trace_source_from_dict,
    write_trace_json,
)
from repro.traces.transforms import (
    BootstrapResample,
    FilterJobs,
    Head,
    Perturb,
    RescaleLoad,
    ScaleInterarrival,
    TimeWindow,
    available_transforms,
    transform_from_dict,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

SWF_TEXT = "; Version: 2.2\n1 0 -1 10 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"


@pytest.fixture(scope="module")
def swf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("swf") / "tiny.swf"
    path.write_text(SWF_TEXT)
    return path


@pytest.fixture(scope="module")
def trace_json_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    workload = LublinTraceSource(num_jobs=5, seed=7).materialize(Cluster(4))
    write_trace_json(workload, path)
    return path


@pytest.fixture(scope="module")
def node_events_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.json"
    write_node_events_json(
        [NodeEvent(10.0, 0, "down"), NodeEvent(20.0, 0, "up")], path
    )
    return path


def trace_source_exemplars(swf_path, trace_json_path):
    lublin = LublinTraceSource(num_jobs=10, seed=3)
    return {
        "concat": ConcatTraceSource(
            sources=(LublinTraceSource(num_jobs=4), DowneyTraceSource(num_jobs=4)),
            gap_seconds=60.0,
        ),
        "diurnal-poisson": DiurnalPoissonTraceSource(num_jobs=20, seed=5),
        "downey": DowneyTraceSource(num_jobs=20, seed=5),
        "hpc2n-like": Hpc2nLikeTraceSource(weeks=1, jobs_per_week=20, seed=5),
        "json": JsonTraceSource(path=str(trace_json_path)),
        "lublin": lublin,
        "swf": SwfTraceSource(path=str(swf_path)),
        "transform": lublin.transformed(Head(count=5)),
    }


def transform_exemplars():
    return {
        "bootstrap": BootstrapResample(num_jobs=8, seed=11),
        "filter": FilterJobs(min_tasks=1, max_runtime_seconds=3600.0),
        "head": Head(count=5),
        "perturb": Perturb(runtime_factor=0.1, seed=11),
        "rescale-load": RescaleLoad(target_load=0.7),
        "scale-interarrival": ScaleInterarrival(factor=2.0),
        "time-window": TimeWindow(start=0.0, end=7200.0),
    }


def accumulator_exemplars():
    exemplars = {
        "exact": ExactDistribution(),
        "histogram": FixedHistogram(low=0.0, high=10.0, bins=4),
        "job-metrics": JobMetricsAccumulator(),
        "moments": Moments(),
        "quantile-sketch": QuantileSketch(),
        "reservoir": ReservoirSample(k=4, seed=9),
        "sum": SumAccumulator(),
        "top-k": TopK(k=3),
    }
    values = [1.0, 2.5, 4.0, 8.0]
    for kind in ("exact", "histogram", "moments", "quantile-sketch", "sum"):
        exemplars[kind].update(values)
    for index, value in enumerate(values):
        exemplars["reservoir"].add(value, key=index)
        exemplars["top-k"].add(value, index)
    time_weighted = TimeWeightedValue()
    for value in values:
        time_weighted.add_segment(value, duration=10.0)
    exemplars["time-weighted"] = time_weighted
    return exemplars


def overhead_model_exemplars():
    return {
        "none": NoOverheadModel(),
        "constant": ConstantOverheadModel(
            preemption_seconds=5.0, migration_seconds=10.0
        ),
        "memory-linear": MemoryLinearOverheadModel(
            seconds_per_gb=0.5, events=("preemption", "checkpoint")
        ),
        "checkpoint-bandwidth": CheckpointBandwidthOverheadModel(
            bandwidth_gb_per_sec=2.0, class_bandwidth={"slow": 0.5}
        ),
    }


def execution_time_model_exemplars():
    return {
        "exact": ExactExecutionTimeModel(),
        "table": TableExecutionTimeModel(
            breakpoints=((600.0, 1.1), (7200.0, 1.02)), default=1.0
        ),
        "stochastic": StochasticExecutionTimeModel(
            seed=7, min_multiplier=1.0, max_multiplier=1.3
        ),
    }


def platform_exemplars():
    return {
        "homogeneous": HomogeneousPlatform(nodes=4),
        "node-classes": NodeClassesPlatform(
            classes=(NodeClass("fat", 2), NodeClass("thin", 1, cpu=2.0, memory=0.5))
        ),
    }


def node_event_source_exemplars(node_events_path):
    return {
        "exponential": ExponentialFailureSource(seed=3),
        "weibull": WeibullFailureSource(seed=3),
        "trace": TraceNodeEventSource(events_list=((10.0, 0, "down"), (20.0, 0, "up"))),
        "json": JsonNodeEventSource(path=str(node_events_path)),
    }


def admission_policy_exemplars():
    return {
        "accept-all": AcceptAllPolicy(),
        "bounded-queue": BoundedQueuePolicy(max_pending=32, mode="shed"),
        "load-threshold": LoadThresholdPolicy(max_load=1.5),
        "token-bucket": TokenBucketPolicy(rate=2.0, burst=16.0),
    }


def telemetry_config_exemplars():
    return {
        "off": NoTelemetry(),
        "stats": StatsTelemetry(),
        "tracing": TracingTelemetry(max_spans=1000),
    }


def assert_registry_round_trips(exemplars, available, from_dict, label):
    assert set(exemplars) == set(available()), (
        f"{label}: exemplar set out of date — update this test when the "
        f"registry gains or loses a kind"
    )
    for kind, exemplar in sorted(exemplars.items()):
        assert exemplar.kind == kind, f"{label}: {kind!r} kind attribute drifted"
        spec = exemplar.to_dict()
        assert spec["type"] == kind, f"{label}: {kind!r} emits wrong type field"
        rebuilt = from_dict(spec)
        assert rebuilt.to_dict() == spec, f"{label}: {kind!r} does not round-trip"
        assert json.loads(json.dumps(spec)) == spec, (
            f"{label}: {kind!r} spec is not JSON-serialisable"
        )


def test_trace_source_registry_round_trips(swf_path, trace_json_path):
    assert_registry_round_trips(
        trace_source_exemplars(swf_path, trace_json_path),
        available_trace_sources,
        trace_source_from_dict,
        "trace source",
    )


def test_transform_registry_round_trips():
    assert_registry_round_trips(
        transform_exemplars(), available_transforms, transform_from_dict, "transform"
    )


def test_accumulator_registry_round_trips():
    assert_registry_round_trips(
        accumulator_exemplars(),
        available_accumulators,
        accumulator_from_dict,
        "accumulator",
    )


def test_platform_registry_round_trips():
    assert_registry_round_trips(
        platform_exemplars(), available_platforms, platform_from_dict, "platform"
    )


def test_node_event_source_registry_round_trips(node_events_path):
    assert_registry_round_trips(
        node_event_source_exemplars(node_events_path),
        available_node_event_sources,
        node_event_source_from_dict,
        "node event source",
    )


def test_admission_policy_registry_round_trips():
    assert_registry_round_trips(
        admission_policy_exemplars(),
        available_admission_policies,
        admission_policy_from_dict,
        "admission policy",
    )


def test_overhead_model_registry_round_trips():
    assert_registry_round_trips(
        overhead_model_exemplars(),
        available_overhead_models,
        overhead_model_from_dict,
        "overhead model",
    )


def test_execution_time_model_registry_round_trips():
    assert_registry_round_trips(
        execution_time_model_exemplars(),
        available_execution_time_models,
        execution_time_model_from_dict,
        "execution-time model",
    )


def test_telemetry_config_registry_round_trips():
    assert_registry_round_trips(
        telemetry_config_exemplars(),
        available_telemetry_configs,
        telemetry_config_from_dict,
        "telemetry spec",
    )


def test_no_dangling_scheduler_names():
    names = available_algorithms()
    assert names == sorted(names)
    for name in names:
        scheduler = create_scheduler(name)
        assert scheduler is not None, name
    # Paper names may carry a period suffix (e.g. dynmcb8-per-600) that the
    # factory parses rather than the registry storing — so the dangling-name
    # check is constructibility, not set membership.
    for name in PAPER_ALGORITHMS:
        assert create_scheduler(name) is not None, name


def test_no_dangling_collector_names_or_observers():
    for name in available_collectors():
        collector = create_collector(name)
        assert collector is not None, name
        modes = (False, True) if collector.streaming_capable else (False,)
        for streaming in modes:
            for key, observer in collector.observers(streaming).items():
                assert isinstance(observer, SimulationObserver), (name, key)


def test_audit_covers_every_kind_registry():
    RegistryCompletenessRule().check_project([])  # imports every seam
    audited = {
        registry.label for registry in all_registries() if registry.base is not None
    }
    assert audited == {
        "trace source",
        "trace transform",
        "accumulator",
        "platform",
        "node event source",
        "admission policy",
        "overhead model",
        "execution-time model",
        "telemetry spec",
        "workload source",
    }


ROGUE_SOURCE = """
from repro.campaign.scenario import WorkloadSource


class RogueSource(WorkloadSource):
    kind = "rogue"

    def to_dict(self):
        return {"type": self.kind}
"""


def test_reg_rule_flags_unregistered_scenario_source(tmp_path, monkeypatch):
    # Scenario sources had no audit before the generic Registry.
    path = tmp_path / "rogue_source.py"
    path.write_text(ROGUE_SOURCE)
    spec = importlib.util.spec_from_file_location("rogue_source", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "rogue_source", module)  # inspect needs it
    spec.loader.exec_module(module)
    result = check_paths(
        [str(path)], project_root=str(tmp_path), rules=[RegistryCompletenessRule()]
    )
    assert [finding.code for finding in result.findings] == ["REG601"]
    message = result.findings[0].message
    assert "workload source class RogueSource" in message and "'rogue'" in message
    assert result.findings[0].line == 5


def test_reg_rule_finds_nothing_in_tree():
    result = check_paths(
        [str(SRC)],
        project_root=str(REPO_ROOT),
        rules=[RegistryCompletenessRule()],
    )
    assert result.findings == [], [f.format() for f in result.findings]
