"""Tests for the Scenario spec: expansion, templating, hashing, round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.campaign.scenario import (
    CustomSource,
    Hpc2nLikeSource,
    LublinSource,
    Scenario,
    SwfSource,
    payload_hash,
    scenario_from_dict,
    scenario_hash,
    source_from_dict,
)
from repro.campaign.studies import ExperimentConfig
from repro.core.cluster import PAPER_CLUSTER, Cluster
from repro.exceptions import ConfigurationError
from repro.traces import load_trace_source
from repro.traces.io import TRACE_JSON_FORMAT, trace_json_payload_to_workload
from repro.traces.model import Workload


def tiny_scenario(**overrides) -> Scenario:
    fields = dict(
        name="tiny",
        source=LublinSource(num_traces=2, num_jobs=20, seed_base=5),
        cluster=Cluster(16, 4, 8.0),
        algorithms=("fcfs", "greedy"),
        penalty_seconds=300.0,
        sweep={"load": (0.3, 0.7)},
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestExpansion:
    def test_no_sweep_is_one_cell(self):
        cells = tiny_scenario(sweep=()).expand()
        assert len(cells) == 1
        assert cells[0].params_dict() == {}

    def test_single_axis(self):
        cells = tiny_scenario().expand()
        assert [cell.params_dict() for cell in cells] == [
            {"load": 0.3},
            {"load": 0.7},
        ]
        assert [cell.index for cell in cells] == [0, 1]

    def test_cross_product_in_axis_order(self):
        scenario = tiny_scenario(sweep={"load": (0.3, 0.7), "period": (60, 600)})
        combos = [cell.params_dict() for cell in scenario.expand()]
        assert combos == [
            {"load": 0.3, "period": 60},
            {"load": 0.3, "period": 600},
            {"load": 0.7, "period": 60},
            {"load": 0.7, "period": 600},
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(sweep={"load": ()})

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(sweep=(("load", (0.3,)), ("load", (0.7,))))


#: One ``{x}``-templated spec per sweep-templatable block, and the value a
#: cell's engine configuration reads back from it.
_TEMPLATED_BLOCKS = {
    "platform": (
        {
            "type": "homogeneous",
            "nodes": 16,
            "events": {"type": "exponential", "mtbf_seconds": "{x}",
                       "mttr_seconds": 600.0, "horizon_seconds": 86400.0,
                       "seed": 3},
            "failure_policy": "resubmit",
        },
        lambda config: config.node_events.mtbf_seconds,
    ),
    "models": (
        {"overhead": {"type": "memory-linear", "seconds_per_gb": "{x}"}},
        lambda config: config.overhead_model.seconds_per_gb,
    ),
}


class TestTemplating:
    @pytest.mark.parametrize("block", sorted(_TEMPLATED_BLOCKS))
    def test_template_must_reference_a_swept_axis(self, block):
        spec, _ = _TEMPLATED_BLOCKS[block]
        with pytest.raises(ConfigurationError, match=f"{block} spec .* not exist: x"):
            tiny_scenario(**{block: spec})

    @pytest.mark.parametrize("block", sorted(_TEMPLATED_BLOCKS))
    def test_template_resolves_per_cell(self, block):
        spec, read = _TEMPLATED_BLOCKS[block]
        scenario = tiny_scenario(**{block: spec}, sweep={"x": (3600.0, 86400.0)})
        assert scenario.to_dict()[block] == spec
        assert [
            read(scenario.simulation_config(cell.params_dict()))
            for cell in scenario.expand()
        ] == [3600.0, 86400.0]

    def test_plain_names_untouched(self):
        scenario = tiny_scenario()
        assert scenario.resolved_algorithms({"load": 0.3}) == ["fcfs", "greedy"]

    def test_axis_template_filled(self):
        scenario = tiny_scenario(
            algorithms=("easy", "dynmcb8-asap-per-{period}"),
            sweep={"period": (60, 600)},
        )
        assert scenario.resolved_algorithms({"period": 60}) == [
            "easy",
            "dynmcb8-asap-per-60",
        ]

    def test_unknown_axis_in_template_rejected(self):
        scenario = tiny_scenario(algorithms=("dynmcb8-per-{period}",))
        with pytest.raises(ConfigurationError):
            scenario.resolved_algorithms({"load": 0.3})

    def test_duplicates_collapse_keeping_first_occurrence(self):
        scenario = tiny_scenario(
            algorithms=("easy", "dynmcb8-per-{period}", "easy", "dynmcb8-per-600")
        )
        assert scenario.resolved_algorithms({"period": 600}) == [
            "easy",
            "dynmcb8-per-600",
        ]


class TestValidation:
    def test_empty_algorithms_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(algorithms=())

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(penalty_seconds=-1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(name="")

    def test_unsafe_name_rejected(self):
        # Names feed cache keys and exported file names.
        for bad in ("a/b", "a b", "a\\b", "a:b"):
            with pytest.raises(ConfigurationError):
                tiny_scenario(name=bad)

    def test_bare_string_algorithms_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(algorithms="easy")

    def test_string_sweep_values_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(sweep={"tag": "abc"})

    def test_scalar_sweep_value_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(sweep={"load": 0.5})

    def test_bad_template_format_spec_rejected(self):
        scenario = tiny_scenario(
            algorithms=("dynmcb8-per-{period:d}",), sweep={"period": (60.5,)}
        )
        with pytest.raises(ConfigurationError):
            scenario.resolved_algorithms({"period": 60.5})


class TestSources:
    def test_lublin_generates_named_seeded_traces(self):
        source = LublinSource(num_traces=2, num_jobs=20, seed_base=5)
        workloads = source.workloads(Cluster(16, 4, 8.0))
        assert [w.name for w in workloads] == ["lublin-000", "lublin-001"]
        assert all(w.num_jobs == 20 for w in workloads)

    def test_hpc2n_like_generates_weeks(self):
        source = Hpc2nLikeSource(weeks=2, jobs_per_week=30, seed_base=5)
        workloads = source.workloads(Cluster(16, 4, 8.0))
        assert len(workloads) == 2
        assert workloads[0].name != workloads[1].name

    def test_swf_source_needs_path(self):
        with pytest.raises(ConfigurationError):
            SwfSource()

    def test_swf_source_hash_tracks_file_content(self, tmp_path):
        # Editing the trace in place must invalidate the run cache on the
        # next invocation (each run constructs a fresh source; the
        # fingerprint is memoised per source object).
        path = tmp_path / "trace.swf"
        path.write_text("1 0 -1 100 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
        before = scenario_hash(
            tiny_scenario(source=SwfSource(path=str(path)), sweep=())
        )
        path.write_text("1 0 -1 200 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
        after_scenario = tiny_scenario(source=SwfSource(path=str(path)), sweep=())
        assert scenario_hash(after_scenario) != before
        # The fingerprint is derived state, not a spec field.
        rebuilt = scenario_from_dict(after_scenario.to_dict())
        assert rebuilt.source == after_scenario.source

    def test_custom_source_calls_factory(self):
        def factory(cluster):
            return [Workload("custom-0", cluster, [])]

        source = CustomSource(factory=factory, key="my-custom")
        workloads = source.workloads(Cluster(8, 4, 8.0))
        assert [w.name for w in workloads] == ["custom-0"]
        assert source.to_dict() == {"type": "custom", "key": "my-custom"}

    def test_source_from_dict_round_trip(self):
        source = Hpc2nLikeSource(weeks=3, jobs_per_week=50, seed_base=9)
        assert source_from_dict(source.to_dict()) == source

    def test_source_from_dict_rejects_unknown_type(self):
        with pytest.raises(ConfigurationError):
            source_from_dict({"type": "nonexistent"})

    def test_source_from_dict_rejects_bad_options(self):
        with pytest.raises(ConfigurationError):
            source_from_dict({"type": "lublin", "bogus": 1})


class TestDictRoundTrip:
    def test_scenario_round_trips_through_dict(self):
        scenario = tiny_scenario(
            collectors=("stretch", {"name": "utilization", "options": {"busy_watts": 250.0}}),
            record_scheduler_times=False,
        )
        rebuilt = scenario_from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert scenario_hash(rebuilt) == scenario_hash(scenario)

    def test_unknown_spec_field_rejected(self):
        payload = tiny_scenario().to_dict()
        payload["bogus"] = 1
        with pytest.raises(ConfigurationError):
            scenario_from_dict(payload)

    def test_missing_source_rejected(self):
        payload = tiny_scenario().to_dict()
        del payload["source"]
        with pytest.raises(ConfigurationError):
            scenario_from_dict(payload)

    def test_unknown_cluster_field_rejected(self):
        # A typo like "num_nodes" must not silently fall back to the default
        # 128-node cluster.
        payload = tiny_scenario().to_dict()
        payload["cluster"] = {"num_nodes": 64}
        with pytest.raises(ConfigurationError):
            scenario_from_dict(payload)

    def test_unknown_engine_field_rejected(self):
        payload = tiny_scenario().to_dict()
        payload["engine"] = {"legacy_evnt_loop": True}
        with pytest.raises(ConfigurationError):
            scenario_from_dict(payload)

    def test_removed_legacy_event_loop_accepts_false_rejects_true(self):
        # The constant stays in the engine block so hashes written before
        # PR 12 (which removed the loop) are unchanged; only `true` is gone.
        payload = tiny_scenario().to_dict()
        assert payload["engine"]["legacy_event_loop"] is False
        assert scenario_from_dict(payload) == tiny_scenario()
        payload["engine"]["legacy_event_loop"] = True
        with pytest.raises(ConfigurationError, match="removed in PR 12"):
            scenario_from_dict(payload)

    def test_repack_on_failure_round_trips(self):
        scenario = tiny_scenario(repack_on_failure=True)
        payload = scenario.to_dict()
        assert payload["engine"]["repack_on_failure"] is True
        rebuilt = scenario_from_dict(payload)
        assert rebuilt == scenario
        assert rebuilt.simulation_config().repack_on_failure is True

    def test_repack_on_failure_default_is_not_serialized(self):
        # Hash stability: specs written before the flag existed must keep
        # their digests, so the default False never appears in the payload.
        payload = tiny_scenario().to_dict()
        assert "repack_on_failure" not in payload.get("engine", {})
        rebuilt = scenario_from_dict(payload)
        assert rebuilt.repack_on_failure is False

    def test_scalar_sweep_value_in_spec_rejected(self):
        payload = tiny_scenario().to_dict()
        payload["sweep"] = {"load": 0.5}
        with pytest.raises(ConfigurationError):
            scenario_from_dict(payload)


class TestHash:
    def test_hash_is_pinned_across_releases(self):
        # Literal from commit 461bd72: cache keys and artifact names of
        # existing campaigns must survive engine-option removals.
        assert scenario_hash(tiny_scenario()) == "72794392a31e4e88"

    def test_hash_is_16_hex_chars(self):
        digest = scenario_hash(tiny_scenario())
        assert len(digest) == 16
        int(digest, 16)

    def test_hash_ignores_nothing_semantic(self):
        assert scenario_hash(tiny_scenario()) != scenario_hash(
            tiny_scenario(penalty_seconds=0.0)
        )
        assert scenario_hash(tiny_scenario()) != scenario_hash(
            tiny_scenario(algorithms=("fcfs",))
        )
        assert scenario_hash(tiny_scenario()) != scenario_hash(
            tiny_scenario(repack_on_failure=True)
        )

    def test_hash_equal_for_equal_scenarios(self):
        assert scenario_hash(tiny_scenario()) == scenario_hash(tiny_scenario())

    def test_payload_hash_is_order_insensitive(self):
        assert payload_hash({"a": 1, "b": 2}) == payload_hash({"b": 2, "a": 1})

    def test_hash_stable_across_processes(self):
        """The cache key must not depend on interpreter state (satellite 4)."""
        scenario = tiny_scenario()
        spec_json = json.dumps(scenario.to_dict())
        program = (
            "import json, sys\n"
            "from repro.campaign.scenario import scenario_from_dict, scenario_hash\n"
            "spec = json.loads(sys.stdin.read())\n"
            "print(scenario_hash(scenario_from_dict(spec)))\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        # PYTHONHASHSEED=random would expose any accidental reliance on
        # dict/set iteration order tied to string hashing.
        env["PYTHONHASHSEED"] = "random"
        completed = subprocess.run(
            [sys.executable, "-c", program],
            input=spec_json,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert completed.stdout.strip() == scenario_hash(scenario)


def test_every_unsized_spec_gets_the_paper_cluster(tmp_path):
    """A scenario, an ``ExperimentConfig``, a trace-source spec file and an
    internal trace with no cluster block all default to one cluster."""
    spec = tmp_path / "lublin.json"
    spec.write_text(json.dumps({"type": "lublin", "num_jobs": 5}), encoding="utf-8")
    unsized_scenario = {k: v for k, v in tiny_scenario().to_dict().items() if k != "cluster"}
    assert PAPER_CLUSTER == Cluster(128, 4, 8.0)
    assert scenario_from_dict(unsized_scenario).cluster == PAPER_CLUSTER
    assert ExperimentConfig().cluster == PAPER_CLUSTER
    assert load_trace_source(spec)[1] == PAPER_CLUSTER
    unsized_trace = {"format": TRACE_JSON_FORMAT, "jobs": []}
    assert trace_json_payload_to_workload(unsized_trace).cluster == PAPER_CLUSTER
