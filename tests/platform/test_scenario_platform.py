"""Scenario ``platform`` block: spec round-trips, templating, CLI, e2e runs."""

from __future__ import annotations

import json

import pytest

from repro.campaign import Campaign
from repro.campaign.scenario import (
    GeneratorSource,
    LublinSource,
    Scenario,
    scenario_from_dict,
    scenario_hash,
)
from repro.cli import main
from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.models import CheckpointBandwidthOverheadModel
from repro.platform import (
    HomogeneousPlatform,
    NodeClass,
    NodeClassesPlatform,
    TraceNodeEventSource,
)


def _failure_platform(**overrides):
    options = dict(
        classes=(NodeClass("fast", 8, cpu=2.0), NodeClass("small", 8, memory=0.5)),
        events=TraceNodeEventSource(
            events_list=((1000.0, 0, "down"), (4000.0, 0, "up"))
        ),
        failure_policy="resubmit",
    )
    options.update(overrides)
    return NodeClassesPlatform(**options)


def _scenario(**overrides):
    options = dict(
        name="plat",
        source=LublinSource(num_traces=1, num_jobs=30),
        algorithms=("greedy",),
        platform=_failure_platform(),
    )
    options.update(overrides)
    return Scenario(**options)


class TestScenarioPlatformField:
    def test_cluster_is_derived_from_platform(self):
        scenario = _scenario()
        assert scenario.cluster.num_nodes == 16
        assert scenario.cluster.is_heterogeneous

    def test_simulation_config_carries_events_and_policy(self):
        config = _scenario().simulation_config()
        assert config.node_events is not None
        assert config.failure_policy == "resubmit"

    def test_spec_round_trip_preserves_hash(self):
        scenario = _scenario()
        rebuilt = scenario_from_dict(scenario.to_dict())
        assert scenario_hash(rebuilt) == scenario_hash(scenario)
        assert rebuilt.to_dict() == scenario.to_dict()

    def test_cluster_and_platform_are_mutually_exclusive(self):
        spec = _scenario().to_dict()
        spec["cluster"] = {"nodes": 8}
        with pytest.raises(ConfigurationError, match="both 'cluster' and 'platform'"):
            scenario_from_dict(spec)

    def test_bare_heterogeneous_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="platform"):
            Scenario(
                name="het",
                source=LublinSource(num_traces=1, num_jobs=10),
                algorithms=("greedy",),
                cluster=Cluster(2, cpu_capacities=(2.0, 1.0)),
            )

    def test_eventless_homogeneous_platform_demotes_to_cluster(self):
        scenario = Scenario(
            name="plain",
            source=LublinSource(num_traces=1, num_jobs=10),
            algorithms=("greedy",),
            platform=HomogeneousPlatform(nodes=32),
        )
        assert scenario.platform is None
        assert "platform" not in scenario.to_dict()
        assert scenario.cluster == Cluster(32)

    def test_one_class_platform_keeps_its_class_names(self):
        # Not demoted to its (homogeneous) cluster: a class-keyed overhead
        # model reads the names through the engine configuration.
        scenario = Scenario(
            name="one-class",
            source=LublinSource(num_traces=1, num_jobs=10),
            algorithms=("greedy",),
            platform=NodeClassesPlatform((NodeClass("c0", 2, 1.0, 1.0),)),
            models={"overhead": CheckpointBandwidthOverheadModel(
                bandwidth_gb_per_sec=2.0, class_bandwidth={"c0": 0.5}
            )},
        )
        assert scenario.simulation_config().node_class_names == ("c0", "c0")


class TestPlatformTemplating:
    def _templated_spec(self):
        return {
            "name": "mtbf-sweep",
            "source": {"type": "lublin", "num_traces": 1, "num_jobs": 20,
                       "seed_base": 2010},
            "platform": {
                "type": "homogeneous",
                "nodes": 16,
                "events": {"type": "exponential", "mtbf_seconds": "{mtbf}",
                           "mttr_seconds": 600.0, "horizon_seconds": 86400.0,
                           "seed": 3},
                "failure_policy": "resubmit",
            },
            "algorithms": ["greedy"],
            "sweep": {"mtbf": [3600.0, 86400.0]},
        }

    def test_template_round_trips_verbatim(self):
        scenario = scenario_from_dict(self._templated_spec())
        assert scenario.to_dict()["platform"]["events"]["mtbf_seconds"] == "{mtbf}"
        rebuilt = scenario_from_dict(scenario.to_dict())
        assert scenario_hash(rebuilt) == scenario_hash(scenario)

    def test_untemplated_json_events_fingerprint_in_templated_hash(self, tmp_path):
        # The events sub-block of a templated platform is canonicalised when
        # it has no placeholders, so editing a json failure trace in place
        # still invalidates caches (same guarantee as the static path).
        from repro.platform import NodeEvent, write_node_events_json

        trace = tmp_path / "fail.json"
        write_node_events_json([NodeEvent(5.0, 0, False)], trace)
        spec = {
            "name": "t",
            "source": {"type": "lublin", "num_traces": 1, "num_jobs": 10},
            "platform": {"type": "homogeneous", "nodes": "{n}",
                         "events": {"type": "json", "path": str(trace)}},
            "algorithms": ["greedy"],
            "sweep": {"n": [8, 16]},
        }
        before = scenario_hash(scenario_from_dict(spec))
        write_node_events_json([NodeEvent(7.0, 0, False)], trace)
        assert scenario_hash(scenario_from_dict(spec)) != before

    def test_stale_cache_format_is_regenerated(self, tmp_path):
        # Pre-platform caches lack the failure columns of the 'costs'
        # collector; the executor must ignore (and rewrite) them rather than
        # mix rows with inconsistent metric columns.
        import json as jsonlib

        scenario = Scenario(
            name="fmt",
            source=LublinSource(num_traces=1, num_jobs=10),
            algorithms=("greedy",),
            cluster=Cluster(16, 4, 8.0),
            collectors=("costs",),
        )
        first = Campaign(cache_dir=tmp_path).run(scenario)
        cache_file = next(tmp_path.glob("*.json"))
        payload = jsonlib.loads(cache_file.read_text(encoding="utf-8"))
        del payload["format"]  # simulate a cache written before the bump
        for entry in payload["runs"].values():
            entry["metrics"].pop("node_failures", None)
        cache_file.write_text(jsonlib.dumps(payload), encoding="utf-8")
        second = Campaign(cache_dir=tmp_path).run(scenario)
        assert all("node_failures" in row.metrics for row in second.rows)
        assert [row.to_dict() for row in second.rows] == [
            row.to_dict() for row in first.rows
        ]

    def test_campaign_executes_one_platform_per_cell(self):
        scenario = scenario_from_dict(self._templated_spec())
        outcome = Campaign().run(scenario)
        by_mtbf = {
            row.params_dict()["mtbf"]: row for row in outcome.rows
        }
        assert set(by_mtbf) == {3600.0, 86400.0}

    def test_cached_templated_rerun_skips_workload_generation(self, tmp_path):
        # A fully cached rerun of a sweep-templated platform must not touch
        # the workload source: the per-cell instance counts ride in the
        # cache.  Prove it by counting source invocations.
        from repro.campaign.scenario import LublinSource

        calls = {"count": 0}

        class CountingSource(LublinSource):
            def workloads(self, cluster):
                calls["count"] += 1
                return super().workloads(cluster)

        def scenario():
            return scenario_from_dict(self._templated_spec())

        first = scenario()
        object.__setattr__(
            first, "source", CountingSource(num_traces=1, num_jobs=20)
        )
        outcome = Campaign(cache_dir=tmp_path).run(first)
        assert calls["count"] == 1  # one cluster shared by both cells

        second = scenario()
        object.__setattr__(
            second, "source", CountingSource(num_traces=1, num_jobs=20)
        )
        cached = Campaign(cache_dir=tmp_path).run(second)
        assert calls["count"] == 1  # fully cached rerun: no regeneration
        assert [row.to_dict() for row in cached.rows] == [
            row.to_dict() for row in outcome.rows
        ]

    def test_streaming_rejects_templated_platform(self):
        spec = self._templated_spec()
        spec["source"] = {"type": "generator", "model": "lublin",
                          "options": {"num_jobs": 20}}
        scenario = scenario_from_dict(spec)
        with pytest.raises(ConfigurationError, match="templating"):
            Campaign(streaming=True).run(scenario)


class TestEndToEnd:
    def test_failure_scenario_runs_from_spec_file(self, tmp_path, capsys):
        # The acceptance criterion: a failure-trace scenario runs end-to-end
        # from a SPEC.json with zero driver code.
        spec = {
            "name": "failures-e2e",
            "source": {"type": "lublin", "num_traces": 1, "num_jobs": 25,
                       "seed_base": 2010},
            "platform": {
                "type": "node-classes",
                "classes": [
                    {"name": "fast", "count": 8, "cpu": 2.0, "memory": 1.0},
                    {"name": "small", "count": 8, "cpu": 1.0, "memory": 0.5},
                ],
                "events": {"type": "trace",
                           "events": [[2000.0, 0, "down"], [9000.0, 0, "up"]]},
                "failure_policy": "migrate",
            },
            "algorithms": ["greedy-pmtn-migr", "dynmcb8-asap-per-600"],
            "collectors": ["stretch", "costs"],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["run", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "failures-e2e" in printed
        assert "greedy-pmtn-migr" in printed

    def test_streaming_campaign_with_static_failure_platform(self):
        scenario = Scenario(
            name="stream-failures",
            source=GeneratorSource(
                model="lublin", instances=2, seed_base=2010,
                options={"num_jobs": 25},
            ),
            algorithms=("greedy",),
            platform=HomogeneousPlatform(
                nodes=32,
                events=TraceNodeEventSource(
                    events_list=((2000.0, 1, "down"), (8000.0, 1, "up"))
                ),
            ),
            collectors=("stretch",),
        )
        outcome = Campaign(streaming=True).run(scenario)
        assert len(outcome.rows) == 1
        assert outcome.rows[0].metric("num_jobs") == 50


class TestPlatformCli:
    def test_inspect_platform_spec(self, tmp_path, capsys):
        spec = {
            "type": "node-classes",
            "classes": [{"name": "fast", "count": 2, "cpu": 2.0, "memory": 1.0}],
            "events": {"type": "trace", "events": [[10.0, 0, "down"]]},
        }
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["platform", "inspect", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "node-classes" in printed
        assert "fast" in printed
        assert "1 events" in printed

    def test_inspect_scenario_spec_with_template(self, tmp_path, capsys):
        scenario_spec = {
            "name": "x",
            "source": {"type": "lublin", "num_traces": 1, "num_jobs": 10},
            "platform": {"type": "homogeneous", "nodes": 4,
                         "events": {"type": "exponential",
                                    "mtbf_seconds": "{mtbf}",
                                    "mttr_seconds": 60.0,
                                    "horizon_seconds": 3600.0, "seed": 1}},
            "algorithms": ["greedy"],
            "sweep": {"mtbf": [600.0]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_spec), encoding="utf-8")
        assert main(["platform", "inspect", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "representative cell" in printed

    def test_inspect_scenario_with_demoted_homogeneous_platform(
        self, tmp_path, capsys
    ):
        # An event-free homogeneous platform is demoted to the plain cluster
        # form inside Scenario; inspect must still describe the spec's block.
        scenario_spec = {
            "name": "plain",
            "source": {"type": "lublin", "num_traces": 1, "num_jobs": 10},
            "platform": {"type": "homogeneous", "nodes": 16},
            "algorithms": ["greedy"],
        }
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(scenario_spec), encoding="utf-8")
        assert main(["platform", "inspect", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "homogeneous" in printed
        assert "static (no failure trace)" in printed

    def test_validate_ok_and_failure(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"type": "homogeneous", "nodes": 4}),
                        encoding="utf-8")
        assert main(["platform", "validate", str(good)]) == 0
        assert "platform OK" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"type": "homogeneous", "nodes": 2,
                        "events": {"type": "trace",
                                   "events": [[5.0, 7, "down"]]}}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError, match="node 7"):
            main(["platform", "validate", str(bad)])
