"""The single ``_run_cells`` loop against the three loops it replaced.

``golden/executor_rows.json`` and ``golden/executor_cache/`` were written at
the parent commit (see ``executor_grid.py``); every mode × workers × cache
state must still produce those rows, and the parent's cache files must still
be served without simulating.
"""

from __future__ import annotations

import json
import shutil

import pytest

import repro.campaign.executor as executor_module
from repro.campaign.executor import Campaign
from repro.exceptions import ConfigurationError

from .executor_grid import (
    CACHED_SCENARIO,
    CACHE_DIR,
    FIXTURE,
    MODES,
    SCENARIOS,
    canonical,
    drop_half,
    modes_of,
    with_collector,
)

GRID = [(name, mode) for name, scenario in SCENARIOS.items() for mode in modes_of(scenario)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name,mode", GRID)
def test_rows_match_parent_fixture(name, mode, workers, tmp_path):
    scenario, expected = SCENARIOS[name], FIXTURE[name][mode]
    campaign = Campaign(workers=workers, cache_dir=tmp_path, **MODES[mode])
    assert canonical(campaign.run(scenario)) == expected  # cold
    assert canonical(campaign.run(scenario)) == expected  # warm
    (cache_file,) = tmp_path.glob("*.json")
    payload = json.loads(cache_file.read_text(encoding="utf-8"))
    payload["runs"] = drop_half(payload["runs"])
    cache_file.write_text(json.dumps(payload), encoding="utf-8")
    assert canonical(campaign.run(scenario)) == expected  # resumed
    assert len(json.loads(cache_file.read_text(encoding="utf-8"))["runs"]) == len(
        expected["rows"]
    )


@pytest.mark.parametrize("mode", list(MODES))
def test_parent_written_cache_is_served_without_simulating(mode, tmp_path, monkeypatch):
    expected = FIXTURE[CACHED_SCENARIO][mode]
    digest = expected["scenario_hash"]
    shutil.copy(CACHE_DIR / f"{digest}.json", tmp_path)

    def explode(task):
        raise AssertionError("cache miss: simulation re-executed")

    monkeypatch.setattr(executor_module, "_execute_run", explode)
    monkeypatch.setattr(executor_module, "_execute_streaming_run", explode)
    outcome = Campaign(cache_dir=tmp_path, **MODES[mode]).run(SCENARIOS[CACHED_SCENARIO])
    assert canonical(outcome) == expected


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_invariants_collector_checks_every_run_and_moves_no_column(name):
    checked = Campaign().run(with_collector(SCENARIOS[name], "invariants"))
    expected = FIXTURE[name]["materialized"]["rows"]
    assert len(checked.rows) == len(expected)
    for row, reference in zip(canonical(checked)["rows"], expected):
        assert row["metrics"].pop("invariant_events_checked") > 0
        assert row == reference


@pytest.mark.parametrize(
    "name",
    [name for name, scenario in SCENARIOS.items() if "streaming" in modes_of(scenario)],
)
def test_invariants_collector_runs_in_both_streaming_modes(name):
    scenario = with_collector(SCENARIOS[name], "invariants")
    counts = {}
    for mode in ("materialized", "per-instance", "streaming"):
        checked = canonical(Campaign(**MODES[mode]).run(scenario))["rows"]
        expected = FIXTURE[name][mode]["rows"]
        assert len(checked) == len(expected)
        for row, reference in zip(checked, expected):
            count = row["metrics"].pop("invariant_events_checked")
            assert count > 0
            assert row == reference
            key = (row["cell_index"], row["instance_index"], row["algorithm"])
            counts.setdefault(mode, {})[key] = count
    # Per-instance streaming runs check exactly the events the materialized
    # runs do, and the merged row's count is the sum over its instances.
    assert counts["per-instance"] == counts["materialized"]
    merged = {}
    for (cell, _, algorithm), count in counts["per-instance"].items():
        merged[(cell, -1, algorithm)] = merged.get((cell, -1, algorithm), 0) + count
    assert counts["streaming"] == merged


def test_streaming_still_rejects_platform_sweep_templating():
    with pytest.raises(ConfigurationError, match="platform sweep templating"):
        Campaign(streaming=True).run(SCENARIOS["grid-platform-sweep"])
