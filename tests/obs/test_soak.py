"""Tests for the long-haul soak harness (repro.obs.soak)."""

from __future__ import annotations

import json

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.obs.soak import (
    SoakConfig,
    SoakReport,
    current_rss_mb,
    rss_slope_mb_per_min,
    run_soak,
)
from repro.traces import DiurnalPoissonTraceSource

CLUSTER = Cluster(16, 4, 8.0)

TRACE = DiurnalPoissonTraceSource(
    num_jobs=2_000,
    seed=11,
    mean_interarrival_seconds=90.0,
    runtime_log_mean=5.0,
    runtime_log_sigma=1.0,
    max_runtime_seconds=7200.0,
    serial_fraction=0.6,
)


class TestRssSlope:
    def test_too_few_samples_is_flat(self):
        assert rss_slope_mb_per_min([]) == 0.0
        assert rss_slope_mb_per_min([(0.0, 100.0)]) == 0.0

    def test_constant_rss_is_flat(self):
        samples = [(float(t), 50.0) for t in range(10)]
        assert rss_slope_mb_per_min(samples) == pytest.approx(0.0)

    def test_linear_growth_recovered(self):
        # 2 MB per second = 120 MB per minute.
        samples = [(float(t), 100.0 + 2.0 * t) for t in range(10)]
        assert rss_slope_mb_per_min(samples) == pytest.approx(120.0)

    def test_shrinking_rss_is_negative(self):
        samples = [(float(t), 100.0 - 1.0 * t) for t in range(10)]
        assert rss_slope_mb_per_min(samples) == pytest.approx(-60.0)

    def test_zero_time_variance_is_flat(self):
        assert rss_slope_mb_per_min([(1.0, 10.0), (1.0, 90.0)]) == 0.0


class TestCurrentRss:
    def test_reads_positive_resident_size(self):
        rss = current_rss_mb()
        assert rss is not None
        assert rss > 1.0


class TestSoakConfig:
    def test_defaults_valid(self):
        config = SoakConfig()
        assert config.acceleration > 0
        assert config.wall_seconds > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"acceleration": 0.0},
            {"acceleration": -1.0},
            {"wall_seconds": 0.0},
            {"scrape_interval_seconds": -2.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SoakConfig(**kwargs)


class TestInvariantChecking:
    def _report(self, **overrides):
        fields = dict(
            algorithm="fcfs",
            workload="t",
            nodes=16,
            acceleration=3600.0,
            wall_seconds=10.0,
            sim_seconds=36_000.0,
            submitted=100,
            accepted=100,
            placements=100,
            completions=90,
            placements_per_wall_sec=10.0,
        )
        fields.update(overrides)
        return SoakReport(**fields)

    def test_healthy_report(self):
        report = self._report()
        assert report.healthy
        payload = report.bench_payload()
        assert payload["healthy"] is True
        assert payload["violations"] == []
        assert payload["benchmark"] == "serve-soak"

    def test_violations_flip_health(self):
        report = self._report(violations=["rss slope 99 exceeds bound"])
        assert not report.healthy
        assert report.bench_payload()["healthy"] is False

    def test_payload_violations_are_a_copy(self):
        report = self._report(violations=["queue depth 9 exceeds bound"])
        report.bench_payload()["violations"].append("written by a reader")
        assert report.violations == ["queue depth 9 exceeds bound"]


class TestEndToEndSoak:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        log = tmp_path_factory.mktemp("soak") / "health.jsonl"
        config = SoakConfig(
            acceleration=50_000.0,
            wall_seconds=2.0,
            scrape_interval_seconds=0.25,
            max_drain_seconds=10.0,
            max_rss_slope_mb_per_min=1_000.0,
            min_placements_per_sec=0.1,
            max_queue_depth=100_000,
        )
        result = run_soak(
            CLUSTER,
            "greedy-pmtn-migr",
            TRACE,
            config=config,
            engine_config=SimulationConfig(streaming_metrics=True),
            health_log=str(log),
        )
        return result, log

    def test_soak_is_healthy_and_made_progress(self, report):
        result, _ = report
        assert result.healthy, result.violations
        assert result.submitted > 0
        assert result.placements > 0
        assert result.completions > 0
        assert result.sim_seconds > 0.0
        assert result.wall_seconds >= 2.0

    def test_health_samples_scraped_over_protocol(self, report):
        result, _ = report
        assert len(result.samples) >= 3
        for sample in result.samples:
            assert sample["rss_mb"] > 0.0
            assert sample["prom_bytes"] > 0
            assert sample["queue_depth"] >= 0
        assert result.prometheus is not None
        assert "repro_serve_placements_total" in result.prometheus
        assert "repro_serve_queue_depth" in result.prometheus

    def test_health_log_is_json_lines(self, report):
        result, log = report
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(result.samples)
        parsed = [json.loads(line) for line in lines]
        walls = [row["wall_seconds"] for row in parsed]
        assert walls == sorted(walls)

    def test_bench_payload_shape(self, report):
        result, _ = report
        payload = result.bench_payload()
        assert payload["jobs_submitted"] == result.submitted
        assert payload["samples"] == len(result.samples)
        assert payload["drained"] is result.drained
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_empty_trace_rejected(self):
        class EmptySource:
            def jobs(self, cluster):
                return iter(())

            def default_name(self):
                return "empty"

        with pytest.raises(ConfigurationError):
            run_soak(
                CLUSTER,
                "fcfs",
                EmptySource(),
                config=SoakConfig(wall_seconds=1.0),
            )
