"""Prometheus text exposition: 0.0.4 format conformance and determinism."""

from __future__ import annotations

import re

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    Telemetry,
    render_prometheus,
    render_telemetry,
)

#: A sample line: name, optional {labels}, then a number.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]"
)


def service_snapshot():
    return {
        "sim_time": 1000.0,
        "wall_seconds": 2.5,
        "submitted": 10,
        "accepted": 9,
        "rejected": 1,
        "shed": 0,
        "cancelled": 0,
        "starts": 9,
        "resumes": 2,
        "migrations": 1,
        "preemptions": 2,
        "completions": 9,
        "placements": 12,
        "placements_per_wall_sec": 4.8,
        "queue_latency": {"p50": 1.0, "p90": 3.0, "p99": 9.5, "mean": 2.0, "max": 9.9},
        "bundle": {"ignored": {"type": "sum", "total": 1.0, "n": 1}},
    }


def instrumented_sink() -> Telemetry:
    telemetry = Telemetry()
    telemetry.count("engine.events", 100)
    telemetry.gauge("engine.active_jobs", 5.0)
    telemetry.record_phase("engine.schedule", 0.0, 0.25)
    telemetry.record_phase("packing.mcb8", 0.0, 0.125)
    return telemetry


def parse_blocks(text):
    """{metric name: (type, [sample lines])} — asserts HELP/TYPE pairing."""
    blocks = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in blocks, f"duplicate HELP block for {name}"
            blocks[name] = current = {"type": None, "samples": []}
            blocks[name]["name"] = name
        elif line.startswith("# TYPE "):
            _, _, name, metric_type = line.split(None, 3)
            assert current is not None and current["name"] == name
            current["type"] = metric_type
        else:
            assert current is not None, f"sample before any header: {line}"
            assert _SAMPLE.match(line), f"malformed sample line: {line}"
            assert line.split("{")[0].split()[0].startswith(current["name"])
            current["samples"].append(line)
    return blocks


class TestRenderPrometheus:
    def test_content_type_constant(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    def test_counters_get_total_suffix_and_one_block_each(self):
        blocks = parse_blocks(render_prometheus(service_snapshot()))
        assert blocks["repro_serve_submitted_total"]["type"] == "counter"
        assert blocks["repro_serve_submitted_total"]["samples"] == [
            "repro_serve_submitted_total 10"
        ]
        assert blocks["repro_serve_sim_time"]["type"] == "gauge"
        assert "repro_serve_queue_latency_seconds" in blocks

    def test_latency_quantile_labels(self):
        blocks = parse_blocks(render_prometheus(service_snapshot()))
        summary = blocks["repro_serve_queue_latency_seconds"]
        assert summary["type"] == "summary"
        assert summary["samples"] == [
            'repro_serve_queue_latency_seconds{quantile="0.5"} 1',
            'repro_serve_queue_latency_seconds{quantile="0.9"} 3',
            'repro_serve_queue_latency_seconds{quantile="0.99"} 9.5',
        ]

    def test_bundle_field_is_not_scraped(self):
        assert "ignored" not in render_prometheus(service_snapshot())

    def test_telemetry_appends_engine_namespace(self):
        text = render_prometheus(service_snapshot(), telemetry=instrumented_sink())
        blocks = parse_blocks(text)
        assert blocks["repro_engine_engine_events_total"]["samples"] == [
            "repro_engine_engine_events_total 100"
        ]
        phase_block = blocks["repro_engine_phase_seconds_total"]
        assert phase_block["type"] == "counter"
        assert len(phase_block["samples"]) == 2  # one labelled sample per phase
        assert any('phase="packing.mcb8"' in line for line in phase_block["samples"])

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_output_is_deterministic(self):
        first = render_prometheus(service_snapshot(), telemetry=instrumented_sink())
        second = render_prometheus(service_snapshot(), telemetry=instrumented_sink())
        assert first == second


class TestRenderTelemetry:
    def test_phases_share_one_block_with_labels(self):
        lines = render_telemetry(instrumented_sink())
        text = "\n".join(lines)
        blocks = parse_blocks(text)
        seconds = blocks["repro_phase_seconds_total"]["samples"]
        counts = blocks["repro_phase_count"]["samples"]
        assert len(seconds) == len(counts) == 2
        assert 'repro_phase_count{phase="engine.schedule"} 1' in counts

    def test_metric_names_sanitised(self):
        telemetry = Telemetry()
        telemetry.count("weird-name.with space", 1)
        text = "\n".join(render_telemetry(telemetry))
        assert "repro_weird_name_with_space_total 1" in text

