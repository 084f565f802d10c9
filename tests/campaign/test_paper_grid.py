"""The shipped paper grid: a smoke run of the file and its committed result.

The file is the ``paper`` study's scaled column at paper size (the drift
test holds the two together), so the smoke tests build it from
:func:`~repro.campaign.studies.paper_scenarios` at a smoke size (one trace
of 40 jobs, loads 0.3 and 0.9, both of the file's penalties) and hold it to
the paper's claims; the committed-result test simulates nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import repro
from repro.campaign import studies
from repro.campaign.executor import Campaign
from repro.campaign.scenario import scenario_from_dict, scenario_hash
from repro.campaign.spec import load_scenario
from repro.campaign.studies import (
    STUDIES,
    TABLE2_ALGORITHMS,
    TABLE2_METRICS,
    ExperimentConfig,
    paper_scenarios,
    render_paper_grid,
)
from repro.cli import main
from repro.schedulers.registry import BATCH_ALGORITHMS, PAPER_ALGORITHMS

REPO = pathlib.Path(__file__).resolve().parents[2]
GRID_FILE = REPO / "examples" / "scenarios" / "paper_grid.json"
SMOKE_LOADS = (0.3, 0.9)
PAPER_SIZE = ExperimentConfig(
    num_traces=12, num_jobs=1000, load_levels=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
)


def smoke_scenario(algorithms=tuple(PAPER_ALGORITHMS)):
    """The file at smoke size: its name and both of its penalties."""
    config = ExperimentConfig(
        num_traces=1, num_jobs=40, load_levels=SMOKE_LOADS, algorithms=algorithms
    )
    scenario = paper_scenarios(config)["scaled"]
    return replace(scenario, name="paper-grid", sweep=(("penalty", (0, 300)), ("load", SMOKE_LOADS)))


def drop_name_and_penalties(scenario):
    spec = scenario.to_dict()
    del spec["name"]
    spec["sweep"] = [[axis, None if axis == "penalty" else values] for axis, values in spec["sweep"]]
    return spec


def smoke_payload(result):
    return {**result.to_json_dict(), "measured": {
        "wall_seconds": 1.0, "command": "smoke", "host": "this test"}}


@pytest.fixture(scope="module")
def smoke():
    return Campaign().run(smoke_scenario())


@pytest.mark.parametrize("penalty", [0, 300])
def test_the_penalty_axis_equals_penalty_seconds(smoke, penalty):
    """The file charges its penalty through a constant overhead model: that
    is the engine's ``penalty_seconds`` on every metric the rendering reads."""
    direct = Campaign().run(
        replace(smoke_scenario(), models=None, penalty_seconds=float(penalty),
                sweep=(("load", SMOKE_LOADS),))
    )
    rendered = ("max_stretch",) + TABLE2_METRICS
    for row in direct.rows:
        (twin,) = smoke.select(algorithm=row.algorithm, penalty=penalty, **row.params_dict())
        assert [twin.metric(m) for m in rendered] == [row.metric(m) for m in rendered], (
            row.algorithm
        )


def test_the_grid_file_is_the_paper_studys_scaled_column_at_paper_size():
    """One definition of the paper: the committed file differs from the
    study's scaled column only in its name and its two penalties."""
    shipped = load_scenario(GRID_FILE)
    assert drop_name_and_penalties(shipped) == drop_name_and_penalties(
        paper_scenarios(PAPER_SIZE)["scaled"]
    )
    assert dict(shipped.sweep)["penalty"] == (0, 300)


def test_the_ratio_line_needs_a_batch_and_a_dfrs_algorithm():
    """A result without a batch algorithm renders without the ratio line."""
    result = Campaign().run(smoke_scenario(algorithms=("greedy-pmtn", "dynmcb8")))
    text = render_paper_grid(smoke_payload(result))
    assert "Best batch" not in text
    assert text.count("The most one run moves is") == 2
    assert text.count("Table II: preemption and migration costs") == 2


@pytest.mark.parametrize("penalty", [0, 300])
def test_dfrs_best_beats_batch_best_in_every_smoke_cell(smoke, penalty):
    """Figure 1 (a) and (b), Table I's scaled column."""
    for load in SMOKE_LOADS:
        averages = smoke.degradation_averages(penalty=penalty, load=load)
        dfrs = min(averages[name] for name in TABLE2_ALGORITHMS)
        assert dfrs <= min(averages[name] for name in BATCH_ALGORITHMS), load


def test_a_periodic_mcb8_keeps_pace_with_dynmcb8_under_the_penalty(smoke):
    """Figure 1(b): averaged over the loads, with the 5-minute penalty."""
    def mean(name):
        return sum(
            smoke.degradation_averages(penalty=300, load=load)[name] for load in SMOKE_LOADS
        ) / len(SMOKE_LOADS)

    periodic = [name for name in PAPER_ALGORITHMS if name.startswith("dynmcb8-")]
    assert min(mean(name) for name in periodic) <= 1.5 * mean("dynmcb8")


def test_the_ratio_line_reads_the_minimum_over_the_algorithms_the_rows_have(smoke):
    """Dropping every algorithm that is never the best of its set leaves
    each penalty's ratio line as it was."""
    full = render_paper_grid(smoke_payload(smoke))
    keep = set()
    for group in smoke.instances():
        for names in (BATCH_ALGORITHMS, TABLE2_ALGORITHMS):
            keep.add(min(names, key=lambda name: group[name].metric("max_stretch")))
    payload = smoke_payload(smoke)
    payload["rows"] = [row for row in payload["rows"] if row["algorithm"] in keep]
    subset = render_paper_grid(payload)

    def ratio_lines(text):
        return [line.split(".  ")[0] for line in text.splitlines() if line.startswith("Best batch")]

    assert len(ratio_lines(full)) == 2
    assert ratio_lines(subset) == ratio_lines(full)


def test_the_header_names_only_studies_and_functions_that_exist(smoke):
    header = render_paper_grid(smoke_payload(smoke)).split("\n## ")[0]
    (sentence,) = [s for s in re.split(r"(?<=\.)\s+", header) if "sections" in s]
    names = re.findall(r"`([^`]+)`", sentence)
    assert names
    for name in names:
        assert name in STUDIES or hasattr(studies, name), name


def test_the_rendering_refuses_merged_rows(smoke):
    payload = smoke.to_json_dict()
    payload["rows"][0]["instance_index"] = -1
    with pytest.raises(ValueError, match="instance_index -1"):
        render_paper_grid(payload)


def test_a_killed_parallel_run_resumes_to_the_serial_bytes(smoke, tmp_path):
    """SIGKILL a two-worker ``run`` once a cell is cached; the rerun (in this
    process) finishes from the cache and exports exactly the serial run's bytes."""
    spec, cache, export = tmp_path / "smoke.json", tmp_path / "cache", tmp_path / "export"
    spec.write_text(json.dumps(smoke_scenario().to_dict()), encoding="utf-8")
    command = [sys.executable, "-m", "repro.cli", "--workers", "2", "--cache-dir",
               str(cache), "--export-dir", str(export), "run", str(spec)]
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    first = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + 60.0
    while not list(cache.glob("*.json")) and first.poll() is None:
        assert time.monotonic() < deadline, "no cell was cached within 60 s"
        time.sleep(0.005)
    assert first.poll() is None, "the run finished before the kill"
    os.killpg(first.pid, signal.SIGKILL)
    first.wait(timeout=30)
    (cache_file,) = cache.glob("*.json")
    assert 0 < len(json.loads(cache_file.read_text(encoding="utf-8"))["runs"]) < len(smoke.rows)

    assert main(command[3:]) == 0
    (exported,) = export.glob("paper-grid-*.json")
    assert exported.read_text(encoding="utf-8") == smoke.to_json()


def test_the_committed_result_ran_the_shipped_file_and_renders_to_its_table():
    committed = json.loads((REPO / "results" / "paper_grid.json").read_text(encoding="utf-8"))
    shipped = load_scenario(GRID_FILE)
    assert committed["scenario_hash"] == scenario_hash(shipped)
    assert scenario_hash(scenario_from_dict(committed["scenario"])) == scenario_hash(shipped)
    assert len(committed["rows"]) == (
        len(shipped.expand()) * shipped.source.num_traces * len(shipped.algorithms)
    )
    assert render_paper_grid(committed) == (
        REPO / "results" / "paper_grid.md"
    ).read_text(encoding="utf-8")
