"""The small campaign grid pinned in ``golden/executor_rows.json``.

The fixture and the three cache files beside it were written by this
module's ``main()`` at commit 9cde462 — the last one whose executor walked
the grid with three separate cell loops — so they judge the single
``_run_cells`` loop against its predecessors.  Never regenerate them from
the current executor to make a test pass: a difference is a regression.
(``PYTHONPATH=src python -m tests.campaign.executor_grid`` re-runs the
scenarios the fixture records — at a reference commit only.)
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tempfile
from typing import Any, Dict, List, Mapping

from repro.campaign.executor import Campaign
from repro.campaign.result import CampaignResult
from repro.campaign.scenario import CollectorSpec, Scenario, scenario_from_dict

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
ROWS_FIXTURE = GOLDEN_DIR / "executor_rows.json"
CACHE_DIR = GOLDEN_DIR / "executor_cache"

#: ``Campaign(...)`` keyword arguments of the three execution modes.
MODES: Dict[str, Dict[str, Any]] = {
    "materialized": {},
    "streaming": {"streaming": True},
    "per-instance": {"streaming": True, "merge_instances": False},
}

#: The scenario whose parent-written cache files are committed, one per mode.
CACHED_SCENARIO = "grid-lublin"

FIXTURE: Dict[str, Dict[str, Any]] = json.loads(ROWS_FIXTURE.read_text(encoding="utf-8"))

#: Each fixture entry echoes its spec, so the grid is defined once, there:
#: ``grid-lublin`` / ``-hpc2n`` / ``-generator`` / ``-transform`` cover the four
#: stream-backed sources (load and ``{period}`` sweeps, telemetry on),
#: ``grid-platform-sweep`` templates a failing node-classes platform and
#: ``grid-models-sweep`` an overhead model.
SCENARIOS: Dict[str, Scenario] = {
    name: scenario_from_dict(by_mode["materialized"]["scenario"])
    for name, by_mode in FIXTURE.items()
}


def modes_of(scenario: Scenario) -> List[str]:
    """Platform sweep templating is materialized-only (streaming rejects it)."""
    return ["materialized"] if scenario.has_platform_template else list(MODES)


def with_collector(scenario: Scenario, name: str) -> Scenario:
    return dataclasses.replace(
        scenario, collectors=scenario.collectors + (CollectorSpec(name),)
    )


def canonical(result: CampaignResult) -> Dict[str, Any]:
    """``to_json_dict()`` without the wall-clock ``telemetry`` metric field."""
    payload = result.to_json_dict()
    for row in payload["rows"]:
        row["metrics"] = {
            key: value for key, value in row["metrics"].items() if key != "telemetry"
        }
    return payload


def drop_half(cache_runs: Mapping[str, Any]) -> Dict[str, Any]:
    """Every other cached run, in sorted-key order: an interrupted campaign."""
    return {key: cache_runs[key] for key in sorted(cache_runs)[::2]}


def main() -> None:
    fixture: Dict[str, Dict[str, Any]] = {}
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    for name, scenario in SCENARIOS.items():
        for mode in modes_of(scenario):
            with tempfile.TemporaryDirectory() as scratch:
                outcome = Campaign(cache_dir=scratch, **MODES[mode]).run(scenario)
                if name == CACHED_SCENARIO:
                    (cache_file,) = pathlib.Path(scratch).glob("*.json")
                    (CACHE_DIR / cache_file.name).write_bytes(cache_file.read_bytes())
            fixture.setdefault(name, {})[mode] = canonical(outcome)
    ROWS_FIXTURE.write_text(
        json.dumps(fixture, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
