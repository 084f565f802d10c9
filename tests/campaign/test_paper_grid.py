"""The shipped paper grid: a smoke run of the file and its committed result.

The smoke tests shrink ``examples/scenarios/paper_grid.json`` with
``dataclasses.replace`` (one trace of 40 jobs, loads 0.3 and 0.9), hold it to
the paper's claims and hold its rendering to the ``figure1`` / ``table1`` /
``table2`` studies' own; the committed-result test simulates nothing.
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
from repro.campaign.executor import Campaign
from repro.campaign.scenario import scenario_from_dict, scenario_hash
from repro.campaign.spec import load_scenario
from repro.campaign.studies import (
    TABLE2_ALGORITHMS,
    TABLE2_METRICS,
    ExperimentConfig,
    render_paper_grid,
    run_figure1,
    run_table2,
    table1_section,
)
from repro.cli import main
from repro.schedulers.registry import BATCH_ALGORITHMS, PAPER_ALGORITHMS

REPO = pathlib.Path(__file__).resolve().parents[2]
GRID_FILE = REPO / "examples" / "scenarios" / "paper_grid.json"
SMOKE_LOADS = (0.3, 0.9)


def smoke_scenario():
    scenario = load_scenario(GRID_FILE)
    return replace(
        scenario,
        source=replace(scenario.source, num_traces=1, num_jobs=40),
        sweep=tuple((axis, SMOKE_LOADS if axis == "load" else v) for axis, v in scenario.sweep),
    )


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


@pytest.mark.parametrize("penalty", [0, 300])
def test_the_grid_renders_through_the_studies_own_sections(smoke, penalty):
    """One renderer: a penalty's Figure 1 and Table II sections are what
    ``run_figure1`` / ``run_table2`` print for the same traces, loads and
    algorithms at that ``penalty_seconds``, and its Table I section is the
    scaled column of that same Figure 1 campaign."""
    payload = {**smoke.to_json_dict(), "measured": {
        "wall_seconds": 1.0, "command": "smoke", "host": "this test"}}
    heading = f"\n## Penalty {penalty} s\n"
    body = render_paper_grid(payload).split(heading, 1)[1].split("\n## ", 1)[0]
    figure, table1, table2 = re.findall(r"```text\n(.*?)\n```", body, re.S)
    scenario = smoke_scenario()
    config = ExperimentConfig(
        cluster=scenario.cluster,
        num_traces=scenario.source.num_traces,
        num_jobs=scenario.source.num_jobs,
        load_levels=SMOKE_LOADS,
        algorithms=scenario.algorithms,
        penalty_seconds=float(penalty),
        seed_base=scenario.source.seed_base,
    )
    report = run_figure1(config)
    assert figure == report.text
    assert table1 == table1_section({"scaled": report.outcome}, penalty)
    assert table2 == run_table2(config).text


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
