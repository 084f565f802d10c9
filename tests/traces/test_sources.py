"""Tests for the JobSource protocol and its adapters."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.job import JobSpec
from repro.exceptions import ConfigurationError
from repro.traces import (
    CallableTraceSource,
    ConcatTraceSource,
    Hpc2nLikeTraceGenerator,
    Hpc2nLikeTraceSource,
    JsonTraceSource,
    LublinTraceSource,
    LublinWorkloadGenerator,
    SwfTraceSource,
    Workload,
    WorkloadTraceSource,
    available_trace_sources,
    swf_to_dfrs_jobs,
    trace_source_from_dict,
    write_swf,
    write_trace_json,
)

CLUSTER = Cluster(32, 4, 8.0)


def _arrival_ordered(specs):
    return all(
        specs[i].submit_time <= specs[i + 1].submit_time
        for i in range(len(specs) - 1)
    )


class TestLublinAdapter:
    def test_round_trip_spec(self):
        source = LublinTraceSource(num_jobs=10, seed=3)
        assert trace_source_from_dict(source.to_dict()) == source
        assert source.spec_expressible

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            LublinTraceSource(num_jobs=0)


class TestHpc2nLikeAdapter:
    def test_round_trip_spec(self):
        source = Hpc2nLikeTraceSource(weeks=2, jobs_per_week=30, seed=1)
        assert trace_source_from_dict(source.to_dict()) == source


class TestSwfAdapter:
    def test_streams_file(self, tmp_path):
        generator = Hpc2nLikeTraceGenerator(CLUSTER, jobs_per_week=40)
        records = list(generator.iter_records(1, seed=9))
        path = tmp_path / "trace.swf"
        write_swf(records, path)
        streamed = list(SwfTraceSource(path=str(path)).jobs(CLUSTER))
        legacy = swf_to_dfrs_jobs(records, CLUSTER)
        assert streamed == legacy.jobs

    def test_default_name_strips_suffixes(self):
        assert SwfTraceSource(path="/data/hpc2n.swf.gz").default_name() == "hpc2n"

    def test_needs_path(self):
        with pytest.raises(ConfigurationError):
            SwfTraceSource()


class TestJsonAdapter:
    def test_round_trips_workload(self, tmp_path):
        workload = LublinWorkloadGenerator(CLUSTER).generate(15, seed=2)
        path = tmp_path / "trace.json"
        write_trace_json(workload, path)
        streamed = list(JsonTraceSource(path=str(path)).jobs(CLUSTER))
        assert streamed == workload.jobs


class TestInMemoryAdapters:
    def test_workload_adapter(self):
        workload = LublinWorkloadGenerator(CLUSTER).generate(12, seed=7)
        source = WorkloadTraceSource(workload=workload)
        assert list(source.jobs(CLUSTER)) == workload.jobs
        assert not source.spec_expressible
        assert source.default_name() == workload.name

    def test_callable_adapter(self):
        def factory(cluster):
            return [JobSpec(0, 0.0, 1, 0.5, 0.1, 100.0)]

        source = CallableTraceSource(factory=factory, key="one-job")
        assert len(list(source.jobs(CLUSTER))) == 1
        assert not source.spec_expressible
        assert source.to_dict() == {"type": "callable", "key": "one-job"}


class TestConcat:
    def test_splices_sequentially(self):
        first = LublinTraceSource(num_jobs=10, seed=1)
        second = LublinTraceSource(num_jobs=10, seed=2)
        spliced = list(
            ConcatTraceSource(sources=(first, second), gap_seconds=500.0).jobs(CLUSTER)
        )
        assert len(spliced) == 20
        assert [spec.job_id for spec in spliced] == list(range(20))
        assert _arrival_ordered(spliced)
        # The second segment starts exactly gap_seconds after the first ends.
        assert spliced[10].submit_time == pytest.approx(
            spliced[9].submit_time + 500.0
        )

    def test_round_trip_spec(self):
        source = ConcatTraceSource(
            sources=(LublinTraceSource(num_jobs=5, seed=1),
                     LublinTraceSource(num_jobs=5, seed=2)),
            gap_seconds=10.0,
        )
        rebuilt = trace_source_from_dict(source.to_dict())
        assert list(rebuilt.jobs(CLUSTER)) == list(source.jobs(CLUSTER))

    def test_not_expressible_with_callable_child(self):
        source = ConcatTraceSource(
            sources=(
                CallableTraceSource(factory=lambda c: [], key="empty"),
            )
        )
        assert not source.spec_expressible

    def test_rejects_empty_and_negative_gap(self):
        with pytest.raises(ConfigurationError):
            ConcatTraceSource(sources=())
        with pytest.raises(ConfigurationError):
            ConcatTraceSource(
                sources=(LublinTraceSource(num_jobs=1),), gap_seconds=-1.0
            )


class TestRegistry:
    def test_known_types_listed(self):
        kinds = available_trace_sources()
        for expected in (
            "lublin", "hpc2n-like", "swf", "json", "concat",
            "downey", "diurnal-poisson", "transform",
        ):
            assert expected in kinds

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trace source"):
            trace_source_from_dict({"type": "nope"})

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError, match="'type'"):
            trace_source_from_dict({})

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid options"):
            trace_source_from_dict({"type": "lublin", "bogus": 1})


class TestMaterialize:
    def test_materialize_names_and_sorts(self):
        source = LublinTraceSource(num_jobs=10, seed=6)
        workload = source.materialize(CLUSTER)
        assert isinstance(workload, Workload)
        assert workload.name == "lublin-seed6"
        assert workload.num_jobs == 10
        named = source.materialize(CLUSTER, name="custom")
        assert named.name == "custom"

    def test_sources_are_re_iterable(self):
        source = LublinTraceSource(num_jobs=25, seed=8)
        assert list(source.jobs(CLUSTER)) == list(source.jobs(CLUSTER))
