"""Tests for the text and Markdown table renderers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    NodePowerModel,
    energy_from_result,
    energy_report_table,
    fairness_report_table,
    format_figure_series,
    format_table,
    stretch_fairness,
)
from repro.core import Cluster, JobSpec, SimulationConfig, Simulator
from repro.exceptions import ReproError
from repro.schedulers import create_scheduler


def _result(algorithm="greedy-pmtn"):
    cluster = Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0)
    specs = [JobSpec(i, i * 5.0, 1, 0.5, 0.2, 80.0) for i in range(4)]
    return Simulator(cluster, create_scheduler(algorithm), SimulationConfig()).run(specs)


class TestFairnessAndEnergyTables:
    def test_fairness_table_contains_algorithm_name(self):
        report = stretch_fairness(_result())
        text = fairness_report_table([report])
        assert "greedy-pmtn" in text
        assert "Jain" in text

    def test_fairness_table_rejects_empty(self):
        with pytest.raises(ReproError):
            fairness_report_table([])

    def test_energy_table_contains_savings_column(self):
        report = energy_from_result(_result(), model=NodePowerModel())
        text = energy_report_table([report])
        assert "savings" in text
        assert "%" in text

    def test_energy_table_rejects_empty(self):
        with pytest.raises(ReproError):
            energy_report_table([])


class TestFormatTable:
    def test_cells_right_aligned_to_the_widest_entry(self):
        lines = format_table(["k", "value"], [["a", 1.0], ["bbbb", 123.456]]).splitlines()
        assert lines[0] == "k     value "
        assert lines[1] == "----  ------"
        assert lines[2] == "   a    1.00"
        assert lines[3] == "bbbb  123.46"

    def test_only_floats_use_the_float_format(self):
        text = format_table(["i", "f"], [[3, 3.0]], float_format="{:.1f}")
        assert text.splitlines()[-1].split() == ["3", "3.0"]

    def test_no_rows_gives_header_and_rule(self):
        assert format_table(["a", "bb"], []).splitlines() == ["a  bb", "-  --"]


class TestFormatFigureSeries:
    SERIES = {"fcfs": {0.5: 2.0, 0.1: 1.0}, "easy": {0.9: 3.0}}

    def test_x_columns_sorted_and_labelled(self):
        header = format_figure_series(self.SERIES, x_label="load").splitlines()[0]
        assert header.split() == ["load", "0.1", "0.5", "0.9"]

    def test_missing_points_rendered_as_dash(self):
        lines = format_figure_series(self.SERIES).splitlines()
        assert lines[2].split() == ["fcfs", "1.00", "2.00", "-"]
        assert lines[3].split() == ["easy", "-", "-", "3.00"]

    def test_rows_keep_series_order_and_float_format(self):
        text = format_figure_series(self.SERIES, float_format="{:.3f}")
        names = [line.split()[0] for line in text.splitlines()[2:]]
        assert names == ["fcfs", "easy"]
        assert "2.000" in text


class TestMarkdownCells:
    def test_tables_have_one_column_per_field(self):
        fairness = fairness_report_table([stretch_fairness(_result())])
        energy = energy_report_table([energy_from_result(_result())])
        for text, columns in ((fairness, 7), (energy, 7)):
            for line in text.splitlines():
                assert line.count("|") == columns + 1

    def test_energy_savings_rendered_as_percentage(self):
        report = energy_from_result(_result())
        row = energy_report_table([report]).splitlines()[-1]
        assert row.rstrip(" |").endswith(f"{100.0 * report.savings_fraction:.1f}%")

    def test_one_row_per_report_in_order(self):
        reports = [stretch_fairness(_result(name)) for name in ("fcfs", "greedy-pmtn")]
        rows = fairness_report_table(reports).splitlines()[2:]
        assert [row.split("|")[1].strip() for row in rows] == ["fcfs", "greedy-pmtn"]
