"""Tests for experiment configuration and plain-text reporting."""

from __future__ import annotations

import pytest

from repro.analysis.report import format_figure_series, format_table
from repro.campaign.studies import ExperimentConfig
from repro.exceptions import ConfigurationError


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_traces": 0},
            {"num_jobs": 1},
            {"load_levels": ()},
            {"load_levels": (0.0,)},
            {"algorithms": ()},
            {"penalty_seconds": -1.0},
            {"hpc2n_weeks": 0},
            {"hpc2n_jobs_per_week": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.23456], ["b", 10.0]],
            title="My table",
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.23" in text
        assert "10.00" in text

    def test_format_table_without_title(self):
        text = format_table(["a"], [[1]])
        assert not text.startswith("\n")
        assert "1" in text

    def test_format_figure_series(self):
        series = {"fcfs": {0.1: 10.0, 0.5: 20.0}, "easy": {0.1: 5.0}}
        text = format_figure_series(series, title="Figure")
        assert "Figure" in text
        assert "0.1" in text and "0.5" in text
        assert "fcfs" in text and "easy" in text
        # Missing points are rendered as a dash.
        assert "-" in text.splitlines()[-1] or "-" in text
