"""Export round-trip tests (satellite): CampaignResult -> CSV/JSON -> back.

The reloaded result must reproduce the in-memory aggregates exactly, and the
CSV row form must be type-faithful (floats stay floats, lists stay lists).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.export import (
    campaign_result_from_json,
    campaign_result_to_json,
    campaign_rows_from_csv,
    campaign_rows_to_csv,
)
from repro.campaign.executor import Campaign
from repro.campaign.result import CampaignResult
from repro.campaign.scenario import LublinSource, Scenario
from repro.core.cluster import Cluster
from repro.exceptions import ReproError


@pytest.fixture(scope="module")
def outcome() -> CampaignResult:
    scenario = Scenario(
        name="roundtrip",
        source=LublinSource(num_traces=2, num_jobs=20, seed_base=5),
        cluster=Cluster(16, 4, 8.0),
        algorithms=("fcfs", "greedy-pmtn"),
        penalty_seconds=300.0,
        sweep={"load": (0.4, 0.8)},
        collectors=("stretch", "costs", "timing"),
    )
    return Campaign().run(scenario)


class TestJsonRoundTrip:
    def test_in_memory_round_trip_is_lossless(self, outcome):
        rebuilt = CampaignResult.from_json(outcome.to_json())
        assert rebuilt.to_json_dict() == outcome.to_json_dict()

    def test_file_round_trip_is_lossless(self, outcome, tmp_path):
        path = tmp_path / "campaign.json"
        outcome.to_json(path)
        rebuilt = CampaignResult.from_json(path)
        assert rebuilt.to_json_dict() == outcome.to_json_dict()

    def test_aggregates_survive_round_trip(self, outcome, tmp_path):
        path = tmp_path / "campaign.json"
        outcome.to_json(path)
        rebuilt = CampaignResult.from_json(path)
        assert rebuilt.degradation_stats() == outcome.degradation_stats()
        assert rebuilt.aggregate("max_stretch") == outcome.aggregate("max_stretch")
        assert rebuilt.format_summary() == outcome.format_summary()


class TestCsvRoundTrip:
    def test_rows_round_trip_type_faithfully(self, outcome, tmp_path):
        path = tmp_path / "rows.csv"
        outcome.rows_to_csv(path)
        rebuilt = CampaignResult.rows_from_csv(str(path))
        assert [row.to_dict() for row in rebuilt] == [
            row.to_dict() for row in outcome.rows
        ]
        # Raw sample vectors (timing collector) survive as lists of floats.
        assert isinstance(rebuilt[0].metric("scheduler_times"), list)

    def test_aggregates_from_reparsed_rows_match(self, outcome):
        text = outcome.rows_to_csv()
        rebuilt = CampaignResult(
            scenario=outcome.scenario,
            scenario_hash=outcome.scenario_hash,
            rows=CampaignResult.rows_from_csv(text),
        )
        assert rebuilt.degradation_stats() == outcome.degradation_stats()
        assert rebuilt.aggregate(
            "pmtn_per_job", statistic="max"
        ) == outcome.aggregate("pmtn_per_job", statistic="max")

    def test_header_is_tidy(self, outcome):
        header = outcome.rows_to_csv().splitlines()[0]
        assert header.startswith("cell_index,instance_index,workload,algorithm")
        assert "param:load" in header
        assert "metric:max_stretch" in header

    def test_writes_to_file_object(self, outcome):
        buffer = io.StringIO()
        campaign_rows_to_csv([row.to_dict() for row in outcome.rows], buffer)
        assert buffer.getvalue() == outcome.rows_to_csv()

    def test_invalid_destination_rejected(self):
        with pytest.raises(ReproError):
            campaign_rows_to_csv([], destination=123)

    def test_empty_csv_rejected(self):
        with pytest.raises(ReproError):
            campaign_rows_from_csv("\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ReproError):
            campaign_rows_from_csv("a,b,c\n1,2,3\n")

    def test_missing_cells_skipped(self):
        rows = [
            {
                "cell_index": 0,
                "instance_index": 0,
                "workload": "w",
                "algorithm": "a",
                "params": [["load", 0.3]],
                "metrics": {"x": 1.0},
            },
            {
                "cell_index": 0,
                "instance_index": 1,
                "workload": "w2",
                "algorithm": "a",
                "params": [],
                "metrics": {},
            },
        ]
        text = campaign_rows_to_csv(rows)
        rebuilt = campaign_rows_from_csv(text)
        assert rebuilt[0]["metrics"] == {"x": 1.0}
        assert rebuilt[1]["params"] == []
        assert rebuilt[1]["metrics"] == {}


def _row(instance_index=0, params=(), metrics=None):
    return {
        "cell_index": 0,
        "instance_index": instance_index,
        "workload": "w",
        "algorithm": "a",
        "params": [list(pair) for pair in params],
        "metrics": dict(metrics or {}),
    }


class TestCsvCellTypes:
    """Every param / metric cell is JSON-encoded, so its type survives CSV."""

    @pytest.mark.parametrize(
        "value",
        [
            7,
            -3,
            2.5,
            1e-300,
            0.1 + 0.2,
            "plain",
            "with,comma",
            'with "quotes"',
            "two\nlines",
            True,
            None,
            [1.0, 2, "x"],
            {"nested": [1, 2]},
        ],
        ids=[
            "int",
            "negative-int",
            "float",
            "tiny-float",
            "inexact-float",
            "string",
            "comma",
            "quotes",
            "newline",
            "bool",
            "null",
            "list",
            "dict",
        ],
    )
    def test_metric_and_param_cells_round_trip(self, value):
        rows = [_row(params=[("axis", value)], metrics={"m": value})]
        rebuilt = campaign_rows_from_csv(campaign_rows_to_csv(rows))
        assert rebuilt == rows
        assert type(rebuilt[0]["metrics"]["m"]) is type(value)


class TestCsvLayout:
    def test_columns_are_the_union_in_first_seen_order(self):
        rows = [
            _row(0, params=[("load", 0.5)], metrics={"b": 1, "a": 2}),
            _row(1, params=[("period", 60)], metrics={"c": 3, "a": 4}),
        ]
        header = campaign_rows_to_csv(rows).splitlines()[0].split(",")
        assert header == [
            "cell_index",
            "instance_index",
            "workload",
            "algorithm",
            "param:load",
            "param:period",
            "metric:b",
            "metric:a",
            "metric:c",
        ]

    def test_absent_cells_are_empty(self):
        rows = [_row(0, metrics={"a": 1}), _row(1, metrics={"b": 2})]
        lines = campaign_rows_to_csv(rows).splitlines()
        assert lines[1] == "0,0,w,a,1,"
        assert lines[2] == "0,1,w,a,,2"

    def test_no_rows_writes_only_the_identity_header(self):
        text = campaign_rows_to_csv([])
        assert text.splitlines() == ["cell_index,instance_index,workload,algorithm"]
        assert campaign_rows_from_csv(text) == []

    def test_blank_lines_are_skipped(self):
        text = campaign_rows_to_csv([_row(0), _row(1)])
        assert campaign_rows_from_csv(text.replace("\n", "\n\n")) == [_row(0), _row(1)]


class TestCsvDestinationsAndSources:
    def test_path_destination_writes_file_and_returns_none(self, tmp_path):
        path = tmp_path / "rows.csv"
        assert campaign_rows_to_csv([_row()], path) is None
        assert campaign_rows_from_csv(path) == [_row()]

    def test_string_path_is_read_as_a_path(self, tmp_path):
        path = tmp_path / "rows.csv"
        campaign_rows_to_csv([_row()], str(path))
        assert campaign_rows_from_csv(str(path)) == [_row()]

    def test_file_object_source(self):
        buffer = io.StringIO(campaign_rows_to_csv([_row()]))
        assert campaign_rows_from_csv(buffer) == [_row()]

    def test_unsupported_source_rejected(self):
        with pytest.raises(ReproError):
            campaign_rows_from_csv(42)


class TestJsonPayload:
    PAYLOAD = {"scenario": {"name": "x"}, "scenario_hash": "abc", "rows": [_row()]}

    def test_text_is_sorted_indented_and_newline_terminated(self):
        text = campaign_result_to_json(self.PAYLOAD)
        assert text.endswith("}\n")
        assert json.loads(text) == self.PAYLOAD
        top_level = [line for line in text.splitlines() if line.startswith('  "')]
        assert [line.split(":")[0].strip() for line in top_level] == [
            '"rows"',
            '"scenario"',
            '"scenario_hash"',
        ]

    def test_indent_option(self):
        assert campaign_result_to_json({"a": 1}, indent=4) == '{\n    "a": 1\n}\n'

    def test_path_destination_returns_none(self, tmp_path):
        path = tmp_path / "result.json"
        assert campaign_result_to_json(self.PAYLOAD, path) is None
        assert campaign_result_from_json(path) == self.PAYLOAD

    def test_string_path_round_trip(self, tmp_path):
        path = str(tmp_path / "result.json")
        campaign_result_to_json(self.PAYLOAD, path)
        assert campaign_result_from_json(path) == self.PAYLOAD

    def test_file_object_round_trip(self):
        buffer = io.StringIO()
        campaign_result_to_json(self.PAYLOAD, buffer)
        assert buffer.getvalue() == campaign_result_to_json(self.PAYLOAD)
        buffer.seek(0)
        assert campaign_result_from_json(buffer) == self.PAYLOAD

    def test_text_with_leading_whitespace_is_content(self):
        text = "  \n" + campaign_result_to_json(self.PAYLOAD)
        assert campaign_result_from_json(text) == self.PAYLOAD

    def test_non_object_document_rejected(self):
        with pytest.raises(ReproError, match="object"):
            campaign_result_from_json(io.StringIO("[1, 2]"))

    def test_invalid_destination_rejected(self):
        with pytest.raises(ReproError):
            campaign_result_to_json(self.PAYLOAD, destination=3.5)

    def test_unsupported_source_rejected(self):
        with pytest.raises(ReproError):
            campaign_result_from_json(None)


class TestCallerBuffers:
    """A writer returns the text only when it made the buffer itself
    (``destination=None``); a caller's ``StringIO`` is a destination like a
    file: it gets the text, and the writer returns None."""

    def test_module_writers(self, outcome):
        rows = [row.to_dict() for row in outcome.rows]
        payload = outcome.to_json_dict()
        for write, data in ((campaign_rows_to_csv, rows), (campaign_result_to_json, payload)):
            buffer = io.StringIO()
            assert write(data, buffer) is None
            assert buffer.getvalue() == write(data)

    def test_campaign_result_methods(self, outcome):
        for write in (outcome.rows_to_csv, outcome.to_json):
            buffer = io.StringIO()
            assert write(buffer) is None
            assert buffer.getvalue() == write()
