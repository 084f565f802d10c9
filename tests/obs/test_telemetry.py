"""Telemetry sink unit tests: intake, bundles, merge algebra, ambient sink."""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.metrics import Moments, SumAccumulator
from repro.metrics.jobs import bundle_to_dict
from repro.obs.telemetry import DEFAULT_MAX_SPANS
from repro.obs import (
    Telemetry,
    as_telemetry,
    current_telemetry,
    merge_telemetry_bundles,
    push_telemetry,
    summarize_bundle,
    telemetry_spec,
    timed_phase,
)


def sink_with(counters=(), gauges=(), phases=(), **kwargs) -> Telemetry:
    telemetry = Telemetry(**kwargs)
    for name, n in counters:
        telemetry.count(name, n)
    for name, value in gauges:
        telemetry.gauge(name, value)
    for name, duration in phases:
        telemetry.record_phase(name, 10.0, 10.0 + duration)
    return telemetry


class TestIntake:
    def test_counters_accumulate(self):
        telemetry = sink_with(counters=[("events", 3), ("events", 2), ("other", 1)])
        assert telemetry.counters == {"events": 5, "other": 1}

    def test_bundle_prefixes_by_family(self):
        telemetry = sink_with(
            counters=[("c", 1)], gauges=[("g", 2.0)], phases=[("p", 0.5)]
        )
        bundle = telemetry.bundle()
        assert set(bundle) == {"counter.c", "gauge.g", "phase.p"}
        assert isinstance(bundle["counter.c"], SumAccumulator)
        assert isinstance(bundle["gauge.g"], Moments)
        assert isinstance(bundle["phase.p"], Moments)
        assert bundle["phase.p"].mean == pytest.approx(0.5)

    def test_pending_phases_flush_into_bundle(self):
        telemetry = Telemetry()
        for _ in range(5000):  # crosses the internal flush threshold
            telemetry.record_phase("hot", 0.0, 1e-6)
        assert telemetry.bundle()["phase.hot"].n == 5000

    def test_summary_is_json_safe(self):
        telemetry = sink_with(
            counters=[("c", 1)], gauges=[("g", 2.0)], phases=[("p", 0.5)]
        )
        summary = telemetry.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["phases"]["p"]["count"] == 1
        assert summary["phases"]["p"]["total_seconds"] == pytest.approx(0.5)

    def test_span_capture_is_bounded(self):
        telemetry = Telemetry(capture_spans=True, max_spans=3)
        for index in range(5):
            telemetry.record_phase("p", float(index), float(index) + 0.1)
        assert len(telemetry.span_events()) == 3
        assert telemetry.dropped_spans == 2
        assert telemetry.summary()["dropped_spans"] == 2

    def test_stats_sink_keeps_no_spans(self):
        telemetry = sink_with(phases=[("p", 0.5)])
        assert telemetry.span_events() == []
        assert telemetry.bundle()["phase.p"].n == 1


class TestMergeAlgebra:
    def bundles(self):
        a = sink_with(counters=[("c", 1)], phases=[("p", 0.1), ("q", 0.2)])
        b = sink_with(counters=[("c", 2)], phases=[("p", 0.3)])
        c = sink_with(gauges=[("g", 5.0)], phases=[("q", 0.4)])
        return [bundle_to_dict(t.bundle()) for t in (a, b, c)]

    def test_union_wise_merge(self):
        merged = merge_telemetry_bundles(self.bundles())
        assert merged["counter.c"].total == pytest.approx(3.0)
        assert merged["phase.p"].n == 2
        assert merged["phase.q"].n == 2
        assert merged["gauge.g"].n == 1

    def test_merge_is_associative_and_order_insensitive(self):
        bundles = self.bundles()
        left = summarize_bundle(
            merge_telemetry_bundles(
                [bundle_to_dict(merge_telemetry_bundles(bundles[:2])), bundles[2]]
            )
        )
        right = summarize_bundle(
            merge_telemetry_bundles(
                [bundles[0], bundle_to_dict(merge_telemetry_bundles(bundles[1:]))]
            )
        )
        flat = summarize_bundle(merge_telemetry_bundles(bundles))
        reversed_ = summarize_bundle(merge_telemetry_bundles(bundles[::-1]))
        assert left == right == flat
        assert reversed_["counters"] == flat["counters"]
        assert reversed_["phases"].keys() == flat["phases"].keys()
        for name in flat["phases"]:
            for key, value in flat["phases"][name].items():
                assert reversed_["phases"][name][key] == pytest.approx(value)

    def test_merged_bundle_round_trips_through_json(self):
        merged = merge_telemetry_bundles(self.bundles())
        as_dict = bundle_to_dict(merged)
        assert json.loads(json.dumps(as_dict)) == as_dict
        assert summarize_bundle(merge_telemetry_bundles([as_dict])) == (
            summarize_bundle(merged)
        )


class TestAmbientSink:
    def test_push_returns_previous(self):
        assert current_telemetry() is None
        sink = Telemetry()
        assert push_telemetry(sink) is None
        try:
            assert current_telemetry() is sink
        finally:
            assert push_telemetry(None) is sink
        assert current_telemetry() is None

    def test_timed_phase_records_into_ambient_sink(self):
        @timed_phase("unit.work")
        def work(x):
            return x * 2

        assert work(3) == 6  # uninstrumented: plain call
        sink = Telemetry()
        previous = push_telemetry(sink)
        try:
            assert work(4) == 8
        finally:
            push_telemetry(previous)
        assert sink.bundle()["phase.unit.work"].n == 1

    def test_ambient_sink_is_thread_local(self):
        sink = Telemetry()
        push_telemetry(sink)
        seen = []
        try:
            thread = threading.Thread(target=lambda: seen.append(current_telemetry()))
            thread.start()
            thread.join()
        finally:
            push_telemetry(None)
        assert seen == [None]


class TestSpecs:
    def test_as_telemetry_coercions(self):
        assert as_telemetry(None) is None
        assert as_telemetry({"type": "off"}) is None
        sink = Telemetry()
        assert as_telemetry(sink) is sink
        stats = as_telemetry({"type": "stats"})
        assert isinstance(stats, Telemetry) and not stats.capture_spans
        tracing = as_telemetry({"type": "tracing", "max_spans": 9})
        assert tracing.capture_spans and tracing.max_spans == 9
        flight = as_telemetry({"type": "stats", "flight": 16})
        assert not flight.capture_spans and flight.flight.capacity == 16
        default = as_telemetry({"type": "tracing"})
        assert default.max_spans == DEFAULT_MAX_SPANS and default.flight is None
        assert as_telemetry({"type": "stats"}) is not as_telemetry({"type": "stats"})

    def test_as_telemetry_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            as_telemetry(42)

    def test_spec_round_trips(self):
        assert telemetry_spec({"type": "off"}) is None
        for data in ({"type": "stats"}, {"type": "tracing", "max_spans": 7}):
            assert telemetry_spec(data) == data

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            telemetry_spec({"type": "nope"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            telemetry_spec({"type": "stats", "bogus": 1})

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "stats", "flight": 2.7},
            {"type": "stats", "flight": True},
            {"type": "stats", "flight": "abc"},
            {"type": "tracing", "flight": "64"},
            {"type": "tracing", "max_spans": "x"},
            {"type": "tracing", "max_spans": False},
            {"type": "tracing", "max_spans": 1.5},
        ],
        ids=repr,
    )
    def test_integer_fields_are_checked_not_coerced(self, spec):
        field = next(name for name in spec if name != "type")
        with pytest.raises(ConfigurationError, match=f"{field!r} must be an integer"):
            telemetry_spec(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("stats", "telemetry spec spec must be an object with a 'type' field, got str"),
            ({}, "telemetry spec spec needs a 'type' field"),
            ({"type": ["x"]}, "unknown telemetry spec type ['x']; known types: off, stats, tracing"),
            ({"type": "off", "flight": 8}, "telemetry spec 'off' has unknown fields: flight"),
            ({"type": "stats", "max_spans": 8}, "telemetry spec 'stats' has unknown fields: max_spans"),
            ({"type": "stats", "flight": 0}, "flight recorder capacity must be a positive integer, got 0"),
            ({"type": "tracing", "max_spans": -1}, "max_spans must be >= 0, got -1"),
        ],
        ids=repr,
    )
    def test_error_messages(self, spec, message):
        with pytest.raises(ConfigurationError) as excinfo:
            telemetry_spec(spec)
        assert str(excinfo.value) == message
