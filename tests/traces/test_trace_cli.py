"""Tests for the ``repro-dfrs trace`` CLI subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.cluster import Cluster
from repro.traces import Hpc2nLikeTraceGenerator, load_trace_json, parse_swf, write_swf


@pytest.fixture()
def swf_file(tmp_path):
    generator = Hpc2nLikeTraceGenerator(
        Cluster(16, 2, 2.0), jobs_per_week=30
    )
    path = tmp_path / "sample.swf"
    write_swf(
        generator.iter_records(1, seed=3),
        path,
        header=["; Computer: sample", "; MaxNodes: 16"],
    )
    return path


@pytest.fixture()
def chain_spec(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps(
            {
                "type": "transform",
                "base": {"type": "downey", "num_jobs": 40, "seed": 5},
                "steps": [{"type": "rescale-load", "target_load": 0.5}],
            }
        ),
        encoding="utf-8",
    )
    return path


class TestParser:
    def test_trace_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["trace"])

    def test_transform_requires_output(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["trace", "transform", "chain.json"])


class TestInspect:
    def test_swf_shows_header_and_stats(self, swf_file, capsys):
        assert main(["trace", "inspect", str(swf_file)]) == 0
        output = capsys.readouterr().out
        assert "Computer: sample" in output
        assert "MaxNodes: 16" in output
        assert "usable jobs:" in output
        assert "offered load:" in output

    def test_spec_file_inspectable(self, chain_spec, capsys):
        assert main(["trace", "inspect", str(chain_spec)]) == 0
        assert "usable jobs: 40" in capsys.readouterr().out


class TestCharacterize:
    def test_chain_spec(self, chain_spec, capsys):
        assert main(["trace", "characterize", str(chain_spec)]) == 0
        output = capsys.readouterr().out
        assert "job width histogram:" in output
        assert "downey-seed5" in output


class TestTransformAndConvert:
    def test_transform_writes_internal_json(self, chain_spec, tmp_path, capsys):
        out = tmp_path / "materialized.json"
        assert main(["trace", "transform", str(chain_spec), "--output", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        workload = load_trace_json(out)
        assert workload.num_jobs == 40

    def test_convert_swf_to_json_and_back(self, swf_file, tmp_path, capsys):
        json_out = tmp_path / "converted.json"
        assert main(["trace", "convert", str(swf_file), str(json_out)]) == 0
        swf_out = tmp_path / "back.swf.gz"
        assert main(["trace", "convert", str(json_out), str(swf_out)]) == 0
        capsys.readouterr()
        # Memory fractions and shapes survive the (documented lossy) cycle.
        original = load_trace_json(json_out)
        records = parse_swf(swf_out)
        assert len(records) == original.num_jobs

    def test_unknown_extension_rejected(self, chain_spec, tmp_path):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="must end in"):
            main(["trace", "transform", str(chain_spec), "--output",
                  str(tmp_path / "out.csv")])

    def test_missing_input_rejected(self, tmp_path):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="not found"):
            main(["trace", "inspect", str(tmp_path / "missing.swf")])
