"""Scenario telemetry block: demotion, canonical form, hashing, and campaign
row wiring."""

from __future__ import annotations

import json

import pytest

from repro.campaign.executor import Campaign
from repro.campaign.scenario import (
    LublinSource,
    Scenario,
    scenario_from_dict,
    scenario_hash,
)
from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.obs import Telemetry

CLUSTER = Cluster(16, 4, 8.0)


def tiny_scenario(**overrides) -> Scenario:
    fields = dict(
        name="obs-tiny",
        source=LublinSource(num_traces=2, num_jobs=15, seed_base=5),
        cluster=CLUSTER,
        algorithms=("fcfs", "greedy-pmtn"),
        penalty_seconds=300.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestTelemetryBlock:
    def test_off_block_demotes_to_absent(self):
        scenario = tiny_scenario(telemetry={"type": "off"})
        assert scenario.telemetry is None
        assert "telemetry" not in scenario.to_dict()

    def test_off_block_keeps_hash_byte_identical(self):
        assert scenario_hash(tiny_scenario(telemetry={"type": "off"})) == (
            scenario_hash(tiny_scenario())
        )

    def test_stats_block_changes_hash_and_round_trips(self):
        scenario = tiny_scenario(telemetry={"type": "stats"})
        assert scenario.telemetry == {"type": "stats"}
        assert scenario_hash(scenario) != scenario_hash(tiny_scenario())
        rebuilt = scenario_from_dict(scenario.to_dict())
        assert scenario_hash(rebuilt) == scenario_hash(scenario)

    def test_unset_optional_field_is_dropped(self):
        scenario = tiny_scenario(telemetry={"type": "stats", "flight": None})
        assert scenario.telemetry == {"type": "stats"}

    #: Canonical form and scenario hash of every accepted spec form: result
    #: caches are keyed by these hashes, so they must not move.  ``off``
    #: hashes like no block at all.
    @pytest.mark.parametrize(
        "spec, canonical, digest",
        [
            ({"type": "off"}, None, "01081292ea7496b6"),
            ({"type": "stats"}, {"type": "stats"}, "3f98c4e5a7cf675d"),
            ({"type": "stats", "flight": 64}, {"type": "stats", "flight": 64}, "999c9fc5301ad12a"),
            ({"type": "stats", "flight": 64.0}, {"type": "stats", "flight": 64}, "999c9fc5301ad12a"),
            ({"type": "tracing"}, {"type": "tracing"}, "aaf3666fc275c1a5"),
            ({"type": "tracing", "max_spans": 1_000_000}, {"type": "tracing"}, "aaf3666fc275c1a5"),
            (
                {"type": "tracing", "flight": 64},
                {"type": "tracing", "flight": 64},
                "8c249396ee5bb6ce",
            ),
            (
                {"type": "tracing", "max_spans": 1000},
                {"type": "tracing", "max_spans": 1000},
                "c5ee53fead98c8f8",
            ),
            (
                {"type": "tracing", "flight": 64, "max_spans": 1000},
                {"type": "tracing", "max_spans": 1000, "flight": 64},
                "4759c83f0aa6bbdc",
            ),
        ],
        ids=repr,
    )
    def test_canonical_form_and_hash_are_pinned(self, spec, canonical, digest):
        scenario = tiny_scenario(telemetry=spec)
        assert scenario.telemetry == canonical
        assert list(scenario.telemetry or ()) == list(canonical or ())
        assert scenario_hash(scenario) == digest

    def test_live_sink_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(telemetry=Telemetry())

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(telemetry={"type": "nope"})

    def test_simulation_config_carries_the_spec(self):
        config = tiny_scenario(telemetry={"type": "stats"}).simulation_config()
        assert config.telemetry == {"type": "stats"}
        assert tiny_scenario().simulation_config().telemetry is None


class TestCampaignRows:
    @pytest.fixture(scope="class")
    def outcome(self):
        return Campaign().run(tiny_scenario(telemetry={"type": "stats"}))

    def test_every_row_carries_a_telemetry_summary(self, outcome):
        for row in outcome.rows:
            summary = row.metrics["telemetry"]
            assert summary["counters"]["engine.events"] > 0
            assert summary["phases"]["engine.schedule"]["count"] > 0

    def test_summary_is_json_safe(self, outcome):
        for row in outcome.rows:
            summary = row.metrics["telemetry"]
            assert json.loads(json.dumps(summary)) == summary

    def test_uninstrumented_rows_are_unchanged(self):
        plain = Campaign().run(tiny_scenario())
        for row in plain.rows:
            assert "telemetry" not in row.metrics

    def test_result_metrics_match_uninstrumented_run(self, outcome):
        plain = Campaign().run(tiny_scenario())
        for inst_row, plain_row in zip(outcome.rows, plain.rows):
            assert inst_row.key() == plain_row.key()
            for name, value in plain_row.metrics.items():
                assert inst_row.metrics[name] == value, name


class TestStreamingCampaignRows:
    def test_streaming_rows_merge_telemetry_bundles(self):
        scenario = tiny_scenario(telemetry={"type": "stats"})
        outcome = Campaign(streaming=True).run(scenario)
        for row in outcome.rows:
            summary = row.metrics["telemetry"]
            assert summary["counters"]["engine.events"] > 0
            # Merged across 2 instances: at least one intake per instance.
            assert summary["phases"]["engine.stream_intake"]["count"] >= 2
            assert json.loads(json.dumps(summary)) == summary
