"""Tests for the Campaign executor: grid semantics, caching, parallelism."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro.campaign.executor as executor_module
from repro.campaign.executor import (
    Campaign,
    export_campaign_artifacts,
    resolve_workers,
    run_algorithm,
)
from repro.campaign.scenario import LublinSource, Scenario, scenario_hash
from repro.campaign.studies import ExperimentConfig
from repro.core.cluster import Cluster
from repro.exceptions import ReproError
from repro.traces import scale_to_load


TINY_CLUSTER = Cluster(16, 4, 8.0)


def tiny_scenario(**overrides) -> Scenario:
    fields = dict(
        name="exec-tiny",
        source=LublinSource(num_traces=2, num_jobs=20, seed_base=5),
        cluster=TINY_CLUSTER,
        algorithms=("fcfs", "greedy-pmtn"),
        penalty_seconds=300.0,
        sweep={"load": (0.4, 0.8)},
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestGridSemantics:
    @pytest.fixture(scope="class")
    def outcome(self):
        return Campaign().run(tiny_scenario())

    def test_row_count_is_full_grid(self, outcome):
        assert len(outcome.rows) == 2 * 2 * 2  # loads x instances x algorithms

    def test_rows_in_cell_major_grid_order(self, outcome):
        keys = [row.key() for row in outcome.rows]
        assert keys == [
            "0/0/fcfs", "0/0/greedy-pmtn", "0/1/fcfs", "0/1/greedy-pmtn",
            "1/0/fcfs", "1/0/greedy-pmtn", "1/1/fcfs", "1/1/greedy-pmtn",
        ]

    def test_metrics_equal_direct_run_instances(self, outcome):
        """Every grid row must be bit-identical to a direct single simulation."""
        raw = LublinSource(num_traces=2, num_jobs=20, seed_base=5).workloads(
            TINY_CLUSTER
        )
        for load in (0.4, 0.8):
            for instance_index, workload in enumerate(
                scale_to_load(w, load) for w in raw
            ):
                for algorithm in ("fcfs", "greedy-pmtn"):
                    result = run_algorithm(
                        workload, algorithm, penalty_seconds=300.0
                    )
                    row = outcome.select(
                        algorithm=algorithm, load=load
                    )[instance_index]
                    assert row.metric("max_stretch") == result.max_stretch
                    assert row.metric("mean_turnaround") == result.mean_turnaround
                    assert row.workload == workload.name

    def test_workload_names_carry_load_suffix(self, outcome):
        assert outcome.rows[0].workload == "lublin-000-load0.4"

    def test_empty_source_rejected(self):
        from repro.campaign.scenario import CustomSource

        scenario = tiny_scenario(
            source=CustomSource(factory=lambda cluster: [], key="empty"), sweep=()
        )
        with pytest.raises(ReproError):
            Campaign().run(scenario)


class TestParallelEquivalence:
    def test_workers_do_not_change_results(self):
        scenario = tiny_scenario()
        serial = Campaign(workers=1).run(scenario)
        parallel = Campaign(workers=2).run(scenario)
        assert [row.to_dict() for row in serial.rows] == [
            row.to_dict() for row in parallel.rows
        ]


class TestCaching:
    def test_cache_file_keyed_by_scenario_hash(self, tmp_path):
        scenario = tiny_scenario()
        Campaign(cache_dir=tmp_path).run(scenario)
        cache_file = tmp_path / f"{scenario_hash(scenario)}.json"
        assert cache_file.exists()
        payload = json.loads(cache_file.read_text())
        assert payload["scenario_hash"] == scenario_hash(scenario)
        assert payload["num_instances"] == 2
        assert len(payload["runs"]) == 8
        for entry in payload["runs"].values():
            assert set(entry) == {"workload", "metrics"}

    def test_rerun_served_from_cache_without_simulating(self, tmp_path, monkeypatch):
        scenario = tiny_scenario()
        first = Campaign(cache_dir=tmp_path).run(scenario)

        def explode(task):
            raise AssertionError("cache miss: simulation re-executed")

        monkeypatch.setattr(executor_module, "_execute_run", explode)
        second = Campaign(cache_dir=tmp_path).run(scenario)
        assert [row.to_dict() for row in second.rows] == [
            row.to_dict() for row in first.rows
        ]

    def test_fully_cached_rerun_skips_workload_generation(
        self, tmp_path, monkeypatch
    ):
        scenario = tiny_scenario()
        first = Campaign(cache_dir=tmp_path).run(scenario)

        def explode(self, cluster):
            raise AssertionError("workload source re-invoked on cached rerun")

        monkeypatch.setattr(LublinSource, "workloads", explode)
        second = Campaign(cache_dir=tmp_path).run(scenario)
        assert [row.to_dict() for row in second.rows] == [
            row.to_dict() for row in first.rows
        ]

    def test_pre_schema_cache_ignored(self, tmp_path):
        # A cache whose run entries lack the workload/metrics shape is stale.
        scenario = tiny_scenario()
        digest = scenario_hash(scenario)
        (tmp_path / f"{digest}.json").write_text(
            json.dumps(
                {
                    "scenario_hash": digest,
                    "runs": {"0/0/fcfs": {"max_stretch": 1.0}},
                }
            )
        )
        outcome = Campaign(cache_dir=tmp_path).run(scenario)
        assert len(outcome.rows) == 8
        assert all(row.metrics for row in outcome.rows)

    def test_partial_cache_resumes_missing_cells_only(self, tmp_path, monkeypatch):
        scenario = tiny_scenario()
        digest = scenario_hash(scenario)
        full = Campaign(cache_dir=tmp_path).run(scenario)

        # Drop one cell's runs from the cache to simulate an interrupted run.
        cache_file = tmp_path / f"{digest}.json"
        payload = json.loads(cache_file.read_text())
        removed = {
            key: run for key, run in payload["runs"].items()
            if key.startswith("1/")
        }
        payload["runs"] = {
            key: run for key, run in payload["runs"].items()
            if not key.startswith("1/")
        }
        cache_file.write_text(json.dumps(payload))

        executed = []
        real_execute = executor_module._execute_run

        def counting(task):
            executed.append(task)
            return real_execute(task)

        monkeypatch.setattr(executor_module, "_execute_run", counting)
        resumed = Campaign(cache_dir=tmp_path).run(scenario)
        assert len(executed) == len(removed)  # only the dropped cell re-ran
        assert [row.to_dict() for row in resumed.rows] == [
            row.to_dict() for row in full.rows
        ]

    def test_mismatched_cache_ignored(self, tmp_path):
        scenario = tiny_scenario()
        digest = scenario_hash(scenario)
        (tmp_path / f"{digest}.json").write_text(
            json.dumps({"scenario_hash": "bogus", "runs": {"0/0/fcfs": {}}})
        )
        outcome = Campaign(cache_dir=tmp_path).run(scenario)
        assert all(row.metrics for row in outcome.rows)

    def test_corrupt_cache_ignored(self, tmp_path):
        scenario = tiny_scenario()
        (tmp_path / f"{scenario_hash(scenario)}.json").write_text("{not json")
        outcome = Campaign(cache_dir=tmp_path).run(scenario)
        assert len(outcome.rows) == 8


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_and_negative_mean_all_cpus(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(-3) >= 1

    def test_positive_passthrough(self):
        assert resolve_workers(5) == 5


class TestDriverWiring:
    CONFIG = ExperimentConfig(
        cluster=Cluster(8, 4, 8.0),
        num_traces=2,
        num_jobs=25,
        load_levels=(0.5,),
        algorithms=("fcfs", "easy"),
    )

    def test_config_carries_workers(self):
        assert self.CONFIG.workers == 1
        assert replace(self.CONFIG, workers=4).workers == 4

    def test_paper_parallel_matches_serial(self):
        from repro.campaign.studies import run_paper

        serial = run_paper(self.CONFIG)
        parallel = run_paper(replace(self.CONFIG, workers=2))
        for ours, theirs in zip(parallel.campaigns, serial.campaigns):
            assert ours.rows == theirs.rows
        assert parallel.format() == serial.format()

    def test_cli_exposes_workers_flag(self):
        from repro.cli import _config_from_args, build_parser

        args = build_parser().parse_args(["--workers", "3", "paper"])
        assert args.workers == 3
        assert _config_from_args(args).workers == 3


class TestRunMany:
    def test_results_keyed_by_name(self):
        outcomes = Campaign().run_many(
            [tiny_scenario(sweep=()), tiny_scenario(name="other", sweep=())]
        )
        assert set(outcomes) == {"exec-tiny", "other"}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError):
            Campaign().run_many([tiny_scenario(sweep=()), tiny_scenario(sweep=())])


class TestExportArtifacts:
    def test_writes_json_and_csv_per_campaign(self, tmp_path):
        outcome = Campaign().run(tiny_scenario(sweep=()))
        written = export_campaign_artifacts([outcome], tmp_path)
        assert len(written) == 2
        assert {path.suffix for path in written} == {".json", ".csv"}
        for path in written:
            assert path.exists()
            assert outcome.scenario_hash in path.name
