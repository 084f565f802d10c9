"""Tests for the ``repro-dfrs`` command-line interface."""

from __future__ import annotations

import argparse
import inspect
import pathlib

import pytest

from repro.campaign.studies import STUDIES
from repro.cli import build_parser, main


def _subcommands(parser):
    """``{name: subparser}`` of ``parser``'s subcommands (empty if it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _quick_reference():
    """The command lines of README's CLI quick reference, comments cut."""
    readme = pathlib.Path(__file__).resolve().parents[2] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI quick reference")[1]
    lines = block.split("```")[1].splitlines()[1:]  # [0] is the "sh" tag
    return [text.split("#")[0].split() for text in lines if text.strip()]


COMMANDS = _subcommands(build_parser())


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_global_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["--nodes", "16", "--num-jobs", "50", "--loads", "0.2,0.6",
             "--algorithms", "fcfs,greedy", "--penalty", "0", "paper"]
        )
        assert args.nodes == 16
        assert args.num_jobs == 50
        assert args.command == "paper"

    def test_compare_load_option(self):
        parser = build_parser()
        args = parser.parse_args(["compare", "--load", "0.4"])
        assert args.load == pytest.approx(0.4)


class TestStudyTable:
    def test_main_has_no_per_study_branch(self):
        source = inspect.getsource(main)
        assert not [name for name in STUDIES if f'"{name}"' in source]

    def test_readme_quick_reference_lists_every_study(self):
        readme = pathlib.Path(__file__).resolve().parents[2] / "README.md"
        block = readme.read_text(encoding="utf-8").split("## CLI quick reference")[1]
        lines = block.split("```")[1].splitlines()
        for name, study in STUDIES.items():
            (entry,) = [
                text for text in lines if text.split("#")[0].split()[:2] == ["repro-dfrs", name]
            ]
            assert entry.split("#", 1)[1].strip() == study.help

    def test_readme_quick_reference_names_only_real_commands(self):
        lines = _quick_reference()
        assert lines
        for words in lines:
            assert words[0] == "repro-dfrs"
            assert words[1] in COMMANDS

    def test_obs_is_not_a_command(self):
        assert "obs" not in COMMANDS
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["obs", "bench-diff", "fresh.json", "old.json"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_readme_quick_reference_lists_command(self, name):
        (words,) = [words for words in _quick_reference() if words[1] == name]
        nested = _subcommands(COMMANDS[name])
        if nested:
            assert words[2].split("|") == list(nested)


class TestMain:
    def _common(self):
        return [
            "--nodes", "8",
            "--num-traces", "1",
            "--num-jobs", "12",
            "--algorithms", "easy,greedy-pmtn",
            "--seed", "3",
        ]

    def test_compare_command(self, capsys):
        code = main(self._common() + ["compare", "--load", "0.5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "easy" in output and "greedy-pmtn" in output
        assert "max stretch" in output

    def test_paper_command(self, capsys):
        code = main(self._common() + ["--loads", "0.5,0.8", "paper"])
        assert code == 0
        output = capsys.readouterr().out
        for title in ("Figure 1", "Table I", "Table II", "Best batch"):
            assert title in output

    def test_paper_command_without_a_high_load(self, capsys):
        code = main(self._common() + ["--loads", "0.5", "paper"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output and "Table I" in output
        assert "Table II needs a load of at least 0.7; this run's loads are 0.5." in output

    def test_paper_command_without_a_batch_algorithm(self, capsys):
        code = main(self._common() + ["--algorithms", "greedy-pmtn,dynmcb8", "paper"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Best batch" not in output and "Table II:" in output

    def test_timing_command(self, capsys):
        code = main(self._common() + ["--algorithms", "dynmcb8", "timing"])
        assert code == 0
        assert "Scheduling-time" in capsys.readouterr().out

    def test_algorithms_command(self, capsys):
        code = main(["algorithms"])
        assert code == 0
        output = capsys.readouterr().out
        from repro.schedulers.registry import available_algorithms

        for name in available_algorithms():
            assert name in output
        # The periodic-name grammar is spelled out, not buried in --help.
        assert "-<seconds>" in output
        assert "default 600" in output

    def test_export_dir_writes_campaign_artifacts(self, tmp_path, capsys):
        export_dir = tmp_path / "artifacts"
        code = main(
            self._common()
            + ["--loads", "0.5", "--export-dir", str(export_dir), "paper"]
        )
        assert code == 0
        json_files = list(export_dir.glob("paper-scaled-*.json"))
        csv_files = list(export_dir.glob("paper-scaled-*.rows.csv"))
        assert len(json_files) == 1 and len(csv_files) == 1
        output = capsys.readouterr().out
        assert str(json_files[0]) in output

    def test_export_dir_paper_writes_all_three_campaigns(self, tmp_path):
        export_dir = tmp_path / "artifacts"
        code = main(
            self._common()
            + ["--loads", "0.5", "--export-dir", str(export_dir), "paper"]
        )
        assert code == 0
        stems = {path.name.split("-", 2)[1] for path in export_dir.glob("paper-*")}
        assert stems == {"scaled", "unscaled", "real"}

    def test_export_dir_packing_ablation(self, tmp_path):
        export_dir = tmp_path / "artifacts"
        code = main(
            [
                "--export-dir", str(export_dir),
                "packing-ablation",
                "--pack-nodes", "8", "--pack-instances", "2", "--pack-jobs", "8",
            ]
        )
        assert code == 0
        assert len(list(export_dir.glob("packing-ablation-*.rows.csv"))) == 1

    def test_compare_through_campaign_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = self._common() + ["--cache-dir", str(cache_dir), "compare", "--load", "0.5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert list(cache_dir.glob("*.json"))
