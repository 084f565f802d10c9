"""Tests for CampaignResult selection, aggregation, and degradation views."""

from __future__ import annotations

import pytest

from repro.campaign.result import CampaignResult, RunRecord
from repro.campaign.studies import figure1_section, table1_section
from repro.exceptions import ConfigurationError


def build_result() -> CampaignResult:
    rows = []
    data = {
        # (cell, instance, algorithm, load) -> max_stretch
        (0, 0, "a", 0.3): 2.0,
        (0, 0, "b", 0.3): 4.0,
        (0, 1, "a", 0.3): 3.0,
        (0, 1, "b", 0.3): 3.0,
        (1, 0, "a", 0.7): 5.0,
        (1, 0, "b", 0.7): 10.0,
        (1, 1, "a", 0.7): 8.0,
        (1, 1, "b", 0.7): 4.0,
    }
    for (cell, instance, algorithm, load), stretch in data.items():
        rows.append(
            RunRecord(
                cell_index=cell,
                instance_index=instance,
                workload=f"w-{instance}",
                algorithm=algorithm,
                params=(("load", load),),
                metrics={"max_stretch": stretch, "samples": [1.0, 2.0]},
            )
        )
    return CampaignResult(
        scenario={"name": "synthetic"}, scenario_hash="deadbeef00000000", rows=rows
    )


class TestSelection:
    def test_algorithms_in_first_seen_order(self):
        assert build_result().algorithms() == ["a", "b"]

    def test_axes(self):
        assert build_result().axes() == ["load"]

    def test_select_by_algorithm_and_axis(self):
        rows = build_result().select(algorithm="a", load=0.7)
        assert [row.metric("max_stretch") for row in rows] == [5.0, 8.0]

    def test_select_with_predicate(self):
        rows = build_result().select(where=lambda row: row.instance_index == 1)
        assert len(rows) == 4

    def test_metric_values(self):
        values = build_result().metric_values("max_stretch", algorithm="b", load=0.3)
        assert values == [4.0, 3.0]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            build_result().rows[0].metric("nonexistent")

    def test_an_axis_no_row_carries_is_refused(self):
        with pytest.raises(ConfigurationError, match=r"axis filter 'laod'; the rows carry: load$"):
            build_result().select(laod=0.5)
        with pytest.raises(ConfigurationError, match=r"'penalty', 'seed'"):
            build_result().select(algorithm="a", load=0.3, penalty=300, seed=1)

    def test_an_empty_result_selects_nothing(self):
        empty = CampaignResult(scenario={"name": "e"}, scenario_hash="0" * 16)
        assert empty.select(laod=0.5) == []
        assert empty.degradation_stats(penalty=300) == {}

    def test_the_queries_refuse_it_too(self):
        result = build_result()
        with pytest.raises(ConfigurationError, match="'laod'"):
            result.degradation_stats(laod=0.3)
        with pytest.raises(ConfigurationError, match="'laod'"):
            result.aggregate("max_stretch", laod=0.3)

    def test_the_section_renderers_refuse_a_scenario_level_penalty(self):
        """``penalty`` picks a panel of a grid that sweeps it; on a result
        that fixed it, Figure 1 and Table I refuse instead of printing no rows."""
        with pytest.raises(ConfigurationError, match="'penalty'.*carry: load"):
            figure1_section(build_result(), 300, penalty=300)
        with pytest.raises(ConfigurationError, match="'penalty'"):
            table1_section({"scaled": build_result()}, 300, penalty=300)


class TestDegradation:
    def test_factors_per_instance(self):
        factors = build_result().degradation_factors(load=0.3)
        assert factors == [{"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 1.0}]

    def test_stats_pool_all_selected_instances(self):
        stats = build_result().degradation_stats()
        # a: factors 1, 1, 1, 2 -> avg 1.25; b: 2, 1, 2, 1 -> avg 1.5
        assert stats["a"].average == pytest.approx(1.25)
        assert stats["b"].average == pytest.approx(1.5)
        assert stats["a"].count == 4

    def test_averages_filterable_by_axis(self):
        # load 0.7 instances: a factors (1.0, 2.0), b factors (2.0, 1.0).
        averages = build_result().degradation_averages(load=0.7)
        assert averages["a"] == pytest.approx(1.5)
        assert averages["b"] == pytest.approx(1.5)


class TestAggregate:
    def test_mean_by_algorithm(self):
        aggregated = build_result().aggregate("max_stretch", statistic="mean")
        assert aggregated["a"] == pytest.approx((2 + 3 + 5 + 8) / 4)

    def test_max_by_axis(self):
        aggregated = build_result().aggregate(
            "max_stretch", by="load", statistic="max"
        )
        assert aggregated == {0.3: 4.0, 0.7: 10.0}

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ConfigurationError):
            build_result().aggregate("max_stretch", statistic="median")


class TestFormatSummary:
    def test_mentions_scenario_and_algorithms(self):
        text = build_result().format_summary()
        assert "synthetic" in text
        assert "deadbeef00000000" in text
        assert "max_stretch (mean)" in text
        # List-valued metrics must not grow columns.
        assert "samples" not in text

    def test_empty_result(self):
        empty = CampaignResult(scenario={"name": "e"}, scenario_hash="0" * 16)
        assert "no runs" in empty.format_summary()
