"""CLI tests for the ablation / extension subcommands."""

from __future__ import annotations

import pytest

from repro.campaign.studies import STUDIES
from repro.cli import build_parser, main

_COMMON = [
    "--nodes", "16",
    "--num-traces", "1",
    "--num-jobs", "25",
    "--loads", "0.5",
]


class TestParser:
    @pytest.mark.parametrize("command", list(STUDIES))
    def test_new_subcommands_are_registered(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command

    def test_period_sweep_options(self):
        args = build_parser().parse_args(
            ["period-sweep", "--base-algorithm", "dynmcb8-per", "--periods", "60,600"]
        )
        assert args.base_algorithm == "dynmcb8-per"
        assert args.periods == (60.0, 600.0)

    def test_packing_ablation_options(self):
        args = build_parser().parse_args(
            ["packing-ablation", "--pack-nodes", "8", "--pack-instances", "3"]
        )
        assert args.pack_nodes == 8
        assert args.pack_instances == 3


class TestMain:
    def test_period_sweep_prints_table(self, capsys):
        exit_code = main(
            _COMMON
            + ["--algorithms", "dynmcb8-asap-per-600"]
            + ["period-sweep", "--periods", "600,1800", "--load", "0.5"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Period sensitivity" in output
        assert "600" in output

    def test_packing_ablation_prints_table(self, capsys):
        exit_code = main(
            ["packing-ablation", "--pack-nodes", "8", "--pack-instances", "3", "--pack-jobs", "8"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Packing ablation" in output
        assert "mcb8" in output

    def test_utilization_prints_table(self, capsys):
        exit_code = main(
            _COMMON
            + ["--algorithms", "easy,dynmcb8-asap-per-600", "--penalty", "0"]
            + ["utilization", "--load", "0.5"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Utilization and energy study" in output
        assert "easy" in output

    def test_extensions_prints_table(self, capsys):
        exit_code = main(
            _COMMON
            + ["--algorithms", "easy,dynmcb8-asap-per-600,conservative"]
            + ["extensions"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Extensions vs. paper algorithms" in output
        assert "conservative" in output
