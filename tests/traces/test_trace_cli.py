"""Tests for the ``repro-dfrs trace`` CLI subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.cluster import Cluster
from repro.traces import (
    HPC2N_CLUSTER,
    Hpc2nLikeTraceGenerator,
    JobSource,
    LublinWorkloadGenerator,
    characterization_table,
    load_trace_json,
    parse_swf,
    scale_to_load,
    swf_to_dfrs_jobs,
    write_swf,
)

from . import reference_characterization as reference


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

    def test_swf_without_usable_records(self, tmp_path, capsys):
        # The one record has no runtime, so the stream is empty; the trace
        # is still inspectable.
        path = tmp_path / "empty.swf"
        path.write_text(
            "; Computer: x\n1 0 0 -1 4 -1 -1 4 -1 -1 0 -1 -1 -1 -1 -1 -1 -1\n",
            encoding="utf-8",
        )
        assert main(["trace", "inspect", str(path)]) == 0
        output = capsys.readouterr().out
        assert output.splitlines()[-1] == "usable jobs: 0"
        assert "Computer: x" in output


@pytest.mark.parametrize("command", ["inspect", "characterize"])
@pytest.mark.parametrize("trace", ["swf_file", "chain_spec"])
def test_profiles_without_materializing(command, trace, request, monkeypatch, capsys):
    # Both commands profile the trace in one streaming pass; collecting it
    # into a Workload would make them O(jobs) in memory.
    def refuse(self, cluster, *, name=None):
        raise AssertionError(f"trace {command} materialized {self.default_name()}")

    monkeypatch.setattr(JobSource, "materialize", refuse)
    assert main(["trace", command, str(request.getfixturevalue(trace))]) == 0
    assert "jobs" in capsys.readouterr().out


class TestCharacterize:
    def test_chain_spec(self, chain_spec, capsys):
        assert main(["trace", "characterize", str(chain_spec)]) == 0
        output = capsys.readouterr().out
        assert "job width histogram:" in output
        assert "downey-seed5" in output

    @staticmethod
    def _row(table):
        return table.splitlines()[2].split()

    def test_old_synthetic_default_migrates(self, tmp_path, capsys):
        # The former top-level ``characterize --load 0.5`` profiled the
        # default 150-job Lublin trace (seed 2010, 128 nodes) rescaled to
        # load 0.5.  This spec is the same trace; every column but the name
        # and the median (nearest-rank, not interpolated) is unchanged.
        spec = tmp_path / "old-default.json"
        spec.write_text(
            json.dumps(
                {
                    "type": "transform",
                    "base": {"type": "lublin", "num_jobs": 150, "seed": 2010},
                    "steps": [{"type": "rescale-load", "target_load": 0.5}],
                }
            ),
            encoding="utf-8",
        )
        assert main(["trace", "characterize", str(spec)]) == 0
        output = capsys.readouterr().out
        workload = LublinWorkloadGenerator(Cluster(128, 4, 8.0)).generate(150, seed=2010)
        old = reference.characterize(scale_to_load(workload, 0.5))
        assert self._row(output)[1:-1] == self._row(characterization_table([old]))[1:-1]
        assert "job width histogram:" in output

    def test_swf_profile_named_by_file(self, swf_file, capsys):
        # ``characterize --swf F`` became ``trace characterize F``: the same
        # HPC2N conversion and cluster, with the file stem as the name.
        assert main(["trace", "characterize", str(swf_file)]) == 0
        output = capsys.readouterr().out
        old = reference.characterize(swf_to_dfrs_jobs(parse_swf(swf_file), HPC2N_CLUSTER))
        row = self._row(output)
        assert row[0] == "sample"
        assert row[1:-1] == self._row(characterization_table([old]))[1:-1]
        assert "job width histogram:" in output


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
