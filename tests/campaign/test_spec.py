"""Tests for scenario spec files and the ``repro-dfrs run`` subcommand."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.campaign.scenario import scenario_from_dict, scenario_hash, source_from_dict
from repro.campaign.spec import load_scenario, scenario_from_spec_text
from repro.cli import main
from repro.exceptions import ConfigurationError

CROSS_SWEEP_SPEC = {
    "name": "load-period-cross",
    "cluster": {"nodes": 16, "cores_per_node": 4, "node_memory_gb": 8.0},
    "source": {"type": "lublin", "num_traces": 1, "num_jobs": 20, "seed_base": 11},
    "algorithms": ["easy", "dynmcb8-asap-per-{period}"],
    "penalty_seconds": 300,
    "sweep": {"load": [0.3, 0.7], "period": [60, 600]},
    "collectors": ["stretch", "costs"],
}


class TestSpecParsing:
    def test_json_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CROSS_SWEEP_SPEC))
        scenario = load_scenario(path)
        assert scenario.name == "load-period-cross"
        assert scenario.cluster.num_nodes == 16
        assert len(scenario.expand()) == 4
        assert scenario.resolved_algorithms({"load": 0.3, "period": 600}) == [
            "easy",
            "dynmcb8-asap-per-600",
        ]

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        with pytest.raises(ConfigurationError):
            load_scenario(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_spec_text("{not json", format="json")

    def test_bare_string_algorithms_in_spec_rejected(self):
        spec = dict(CROSS_SWEEP_SPEC, algorithms="easy")
        with pytest.raises(ConfigurationError):
            scenario_from_spec_text(json.dumps(spec), format="json")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_spec_text("[1, 2]", format="json")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_spec_text("{}", format="ini")

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python 3.11+"
    )
    def test_toml_spec(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "toml-scenario"',
                    'algorithms = ["fcfs", "easy"]',
                    "penalty_seconds = 300",
                    "[source]",
                    'type = "lublin"',
                    "num_traces = 1",
                    "num_jobs = 20",
                    "[sweep]",
                    "load = [0.5]",
                ]
            )
        )
        scenario = load_scenario(path)
        assert scenario.name == "toml-scenario"
        assert scenario.sweep == (("load", (0.5,)),)


class TestRunSubcommand:
    """The acceptance scenario: a cross-sweep runs from a spec file with
    zero new driver code."""

    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "cross.json"
        path.write_text(json.dumps(CROSS_SWEEP_SPEC))
        return path

    def test_run_prints_summary(self, spec_path, capsys):
        code = main(["run", str(spec_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "load-period-cross" in output
        # Both periodic variants were materialised from the template axis.
        assert "dynmcb8-asap-per-60" in output
        assert "dynmcb8-asap-per-600" in output

    def test_run_with_export_and_cache(self, spec_path, tmp_path, capsys):
        export_dir = tmp_path / "out"
        cache_dir = tmp_path / "cache"
        code = main(
            [
                "--export-dir", str(export_dir),
                "--cache-dir", str(cache_dir),
                "run", str(spec_path),
            ]
        )
        assert code == 0
        assert len(list(export_dir.glob("load-period-cross-*.json"))) == 1
        assert len(list(export_dir.glob("load-period-cross-*.rows.csv"))) == 1
        assert len(list(cache_dir.glob("*.json"))) == 1
        # Second invocation is served from the cache and prints identically.
        first = capsys.readouterr().out
        code = main(
            [
                "--export-dir", str(export_dir),
                "--cache-dir", str(cache_dir),
                "run", str(spec_path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "flags",
        [["--nodes", "16"], ["--num-traces", "3", "--num-jobs", "20"], ["--loads", "0.5"],
         ["--algorithms", "fcfs"], ["--penalty", "0"], ["--seed", "1"]],
    )
    def test_run_refuses_the_sizing_flags_by_name(self, spec_path, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([*flags, "run", str(spec_path)])
        error = capsys.readouterr().err
        assert exit_info.value.code == 2 and all(flag in error for flag in flags[::2])

    def test_run_keeps_the_execution_flags(self, spec_path, tmp_path, capsys):
        argv = ["--workers", "1", "--streaming-metrics", "--cache-dir", str(tmp_path)]
        assert main([*argv, "run", str(spec_path)]) == 0
        assert "load-period-cross" in capsys.readouterr().out


SCENARIO_DIR = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

#: Every shipped scenario file: the name it declares and its cell count.
SHIPPED_SCENARIOS = {
    "generated_transform.json": ("generated-transform-chain", 1),
    "heterogeneous_failures.json": ("heterogeneous-failures", 2),
    "load_period_cross.json": ("load-period-cross", 9),
    "overhead_sweep.json": ("overhead-sweep", 3),
    "paper_grid.json": ("paper-grid", 18),
    "streaming_metrics.json": ("million-job-streaming", 1),
}


@pytest.mark.parametrize("file_name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_shipped_scenario_file_loads_and_keeps_its_hash(file_name):
    scenario = load_scenario(SCENARIO_DIR / file_name)
    assert (scenario.name, len(scenario.expand())) == SHIPPED_SCENARIOS[file_name]
    assert scenario_hash(scenario_from_dict(scenario.to_dict())) == scenario_hash(scenario)
    # A transform chain round-trips through the canonical spec form too.
    source = scenario.source.to_dict()
    assert source_from_dict(source).to_dict() == source
