"""Windowed availability measurement: recorder, collector, streaming parity."""

from __future__ import annotations

import json
import math

import pytest

from repro.campaign import AvailabilityCollector, Campaign
from repro.campaign.scenario import CollectorSpec, LublinSource, Scenario
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.invariants import InvariantCheckingObserver
from repro.core.job import JobSpec
from repro.core.observers import AvailabilityRecorder
from repro.exceptions import ConfigurationError
from repro.obs.slo import GoodputCollector
from repro.platform import HomogeneousPlatform, TraceNodeEventSource
from repro.schedulers import create_scheduler


def _jobs(n=6, runtime=1000.0, spacing=500.0, start=0.0):
    return [
        JobSpec(
            job_id=i,
            submit_time=start + i * spacing,
            num_tasks=2,
            cpu_need=1.0,
            mem_requirement=0.4,
            execution_time=runtime,
        )
        for i in range(n)
    ]


def _failure_scenario(**overrides):
    options = dict(
        name="avail",
        source=LublinSource(num_traces=2, num_jobs=25, seed_base=9),
        algorithms=("greedy-pmtn-migr",),
        platform=HomogeneousPlatform(
            nodes=8,
            events=TraceNodeEventSource(
                events_list=(
                    (5_000.0, 3, "down"),
                    (60_000.0, 3, "up"),
                    (80_000.0, 1, "down"),
                    (140_000.0, 1, "up"),
                )
            ),
            failure_policy="migrate",
        ),
        collectors=(
            CollectorSpec("availability", options={"window_seconds": 7200.0}),
        ),
    )
    options.update(overrides)
    return Scenario(**options)


def _run(events=(), jobs=None, observers=(), streaming=False):
    source = TraceNodeEventSource(events_list=tuple(events)) if events else None
    config = SimulationConfig(
        node_events=source, failure_policy="migrate", streaming_metrics=streaming
    )
    engine = Simulator(
        Cluster(4, 4, 8.0),
        create_scheduler("greedy-pmtn-migr"),
        config,
        observers=list(observers),
    )
    jobs = jobs if jobs is not None else _jobs()
    return engine.run_stream(jobs) if streaming else engine.run(jobs)


class TestAvailabilityRecorder:
    def _recorder(self, events=()):
        recorder = AvailabilityRecorder()
        _run(events, observers=[recorder])
        return recorder

    def test_no_failures_is_fully_available(self):
        recorder = self._recorder()
        assert recorder.delivered_cpu_seconds() == pytest.approx(
            recorder.nominal_cpu_capacity() * recorder.duration()
        )

    def test_downtime_subtracts_node_capacity(self):
        recorder = self._recorder(events=[(1000.0, 0, "down"), (2000.0, 0, "up")])
        nominal = recorder.nominal_cpu_capacity()
        expected = nominal * recorder.duration() - (nominal / 4) * 1000.0
        assert recorder.delivered_cpu_seconds() == pytest.approx(expected)

    def test_collector_brings_a_fresh_recorder_in_both_modes(self):
        collector = AvailabilityCollector()
        for streaming in (False, True):
            observers = collector.observers(streaming)
            assert isinstance(observers["availability"], AvailabilityRecorder)
            assert observers["availability"] is not collector.observers(
                streaming
            )["availability"]


class TestNodesDownBeforeTheFirstSubmission:
    """Node 3 of 4 fails at t=0 and is never repaired; the first job arrives
    at t=100.  The engine starts with the node down, so must every observer."""

    EVENTS = [(0.0, 3, "down")]

    def _row(self, streaming):
        collector = AvailabilityCollector()
        observers = collector.observers(streaming)
        result = _run(
            self.EVENTS,
            jobs=_jobs(start=100.0),
            observers=observers.values(),
            streaming=streaming,
        )
        if streaming:
            return collector.stream_finalize(
                collector.stream_partials(result, observers)
            )
        return collector.collect(result, observers, None)

    def test_both_modes_measure_the_missing_quarter(self):
        materialized = self._row(streaming=False)
        streamed = self._row(streaming=True)
        assert materialized["availability"] == pytest.approx(0.75)
        assert streamed["availability"] == materialized["availability"]
        assert streamed["min_window_availability"] == pytest.approx(0.75)

    def test_checker_holds_the_node_down_from_the_first_event(self):
        class Snooping(InvariantCheckingObserver):
            def __init__(self):
                super().__init__()
                self.down_at = []

            def on_event(self, event):
                if event.kind in ("submit", "applied"):
                    self.down_at.append(set(self._down))
                super().on_event(event)

        checker = Snooping()
        _run(self.EVENTS, jobs=_jobs(start=100.0), observers=[checker])
        assert checker.down_at and all(down == {3} for down in checker.down_at)
        assert checker.checked_events > 0


class TestRecorderWindows:
    def test_windows_tile_the_run(self):
        width = 600.0
        collector = AvailabilityCollector(window_seconds=width)
        recorder = AvailabilityRecorder()
        _run([(1000.0, 0, "down"), (2300.0, 0, "up")], observers=[recorder])
        capacity = recorder.nominal_cpu_capacity()
        ratios = collector._window_ratios(recorder)
        span = recorder.duration()
        assert len(ratios) == math.ceil(span / width) > 1
        covered = [width] * (len(ratios) - 1) + [span - width * (len(ratios) - 1)]
        assert sum(covered) == pytest.approx(span)
        delivered = sum(r * capacity * c for r, c in zip(ratios, covered))
        assert delivered == pytest.approx(recorder.delivered_cpu_seconds())
        assert min(ratios) < 1.0

    def test_invalid_window_rejected_by_the_collectors(self):
        for bad in (0.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                AvailabilityCollector(window_seconds=bad)
            with pytest.raises(ConfigurationError):
                GoodputCollector(window_seconds=bad)


class TestAvailabilityCollector:
    def test_materialized_rows(self):
        outcome = Campaign().run(_failure_scenario())
        for row in outcome.rows:
            metrics = row.metrics
            assert 0.0 < metrics["availability"] < 1.0
            assert metrics["delivered_cpu_hours"] < metrics["nominal_cpu_hours"]
            assert metrics["downtime_cpu_hours"] > 0.0
            assert metrics["availability_windows"] >= 1
            assert (
                metrics["min_window_availability"]
                <= metrics["mean_window_availability"]
            )
            assert json.loads(json.dumps(metrics)) == metrics

    def test_streaming_rows_match_materialized_exactly(self):
        scenario = _failure_scenario()
        materialized = Campaign().run(scenario)
        streamed = Campaign(streaming=True, merge_instances=False).run(scenario)
        assert len(streamed.rows) == len(materialized.rows) == 2
        for exact, row in zip(materialized.rows, streamed.rows):
            assert row.instance_index == exact.instance_index
            for column, value in exact.metrics.items():
                if column == "mean_window_availability":
                    # Welford moments vs np.mean: equal up to rounding.
                    assert row.metrics[column] == pytest.approx(value, rel=1e-12)
                else:
                    assert row.metrics[column] == value, column

    def test_merged_streaming_row_pools_the_instances(self):
        scenario = _failure_scenario()
        per_run = [row.metrics for row in Campaign().run(scenario).rows]
        (merged_row,) = Campaign(streaming=True).run(scenario).rows
        merged = merged_row.metrics
        delivered = sum(m["delivered_cpu_hours"] for m in per_run)
        nominal = sum(m["nominal_cpu_hours"] for m in per_run)
        assert merged["delivered_cpu_hours"] == pytest.approx(delivered)
        assert merged["nominal_cpu_hours"] == pytest.approx(nominal)
        assert merged["availability"] == pytest.approx(delivered / nominal)
        assert merged["availability_windows"] == sum(
            m["availability_windows"] for m in per_run
        )
        assert merged["min_window_availability"] == min(
            m["min_window_availability"] for m in per_run
        )

    def test_collectors_with_different_widths_share_one_streaming_run(self):
        availability = CollectorSpec("availability", options={"window_seconds": 3600.0})
        goodput = CollectorSpec("goodput", options={"window_seconds": 7200.0})
        together = Campaign(streaming=True).run(
            _failure_scenario(collectors=(availability, goodput))
        )
        for spec in (availability, goodput):
            alone = Campaign(streaming=True).run(_failure_scenario(collectors=(spec,)))
            for row, reference in zip(together.rows, alone.rows):
                for column, value in reference.metrics.items():
                    if column != "telemetry":
                        assert row.metrics[column] == value, (spec.name, column)
