"""How ``loadtest`` and ``soak`` resolve their trace, cluster and engine
config, and how the serve commands refuse a bad spec argument."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.serve.cli import _engine_config, _trace_source
from repro.traces import (
    HPC2N_CLUSTER,
    DiurnalPoissonTraceSource,
    Hpc2nLikeTraceGenerator,
    LublinTraceSource,
    SwfTraceSource,
    trace_source_from_dict,
    write_swf,
)

#: Each command's default generator and trace length.
DEFAULTS = {
    "loadtest": (LublinTraceSource, 10_000),
    "soak": (DiurnalPoissonTraceSource, 100_000),
}


def _resolve(argv):
    args = build_parser().parse_args(argv)
    return _trace_source(args, *DEFAULTS[args.command])


@pytest.fixture()
def swf_file(tmp_path):
    path = tmp_path / "sample.swf"
    write_swf(Hpc2nLikeTraceGenerator(jobs_per_week=20).iter_records(1, seed=3), path)
    return path


@pytest.mark.parametrize("command", sorted(DEFAULTS))
class TestTraceSource:
    def test_trace_replays_on_its_own_cluster(self, command, swf_file):
        source, cluster = _resolve([command, "--trace", str(swf_file)])
        assert source == SwfTraceSource(path=str(swf_file))
        assert cluster == HPC2N_CLUSTER

    def test_nodes_resizes_the_trace_cluster(self, command, tmp_path):
        spec = {"type": "downey", "num_jobs": 30, "seed": 5}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        source, cluster = _resolve(["--nodes", "16", command, "--trace", str(path)])
        assert source == trace_source_from_dict(spec)
        assert cluster == Cluster(16, 4, 8.0)

    def test_default_source(self, command):
        source, cluster = _resolve([command])
        default, num_jobs = DEFAULTS[command]
        assert source == default(num_jobs=num_jobs, seed=2010)
        assert cluster == Cluster(64, 4, 8.0)

    def test_default_source_follows_the_sizing_flags(self, command):
        argv = ["--nodes", "8", "--num-jobs", "50", "--seed", "3", command]
        source, cluster = _resolve(argv)
        assert source == DEFAULTS[command][0](num_jobs=50, seed=3)
        assert cluster == Cluster(8, 4, 8.0)


@pytest.mark.parametrize(
    ("argv", "penalty"), [(["serve"], 0.0), (["--penalty", "300", "soak"], 300.0)]
)
def test_engine_config(argv, penalty):
    config = _engine_config(build_parser().parse_args(argv))
    assert config.penalty_model.penalty_seconds == penalty
    assert config.streaming_metrics


@pytest.mark.parametrize(
    "command, flag",
    [("loadtest", "--admission"), ("serve", "--admission"), ("serve", "--telemetry")],
)
class TestSpecArguments:
    """A spec flag's payload must be a JSON object, inline or in an @file."""

    def _refused(self, command, flag, value):
        argv = ["--nodes", "2", "--num-jobs", "5", command, flag, value]
        with pytest.raises(ConfigurationError, match=flag) as excinfo:
            main(argv)
        return str(excinfo.value)

    def test_inline_non_object_is_refused(self, command, flag):
        assert "must be a JSON object, got list" in self._refused(command, flag, "[1]")

    def test_file_holding_a_non_object_is_refused(self, command, flag, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("3", encoding="utf-8")
        assert "got int" in self._refused(command, flag, f"@{path}")

    def test_missing_file_is_refused(self, command, flag, tmp_path):
        path = tmp_path / "missing.json"
        assert str(path) in self._refused(command, flag, f"@{path}")

    def test_unparsable_file_is_refused(self, command, flag, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{", encoding="utf-8")
        assert "cannot read spec file" in self._refused(command, flag, f"@{path}")
