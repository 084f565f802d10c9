"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench -q`` (outside the tier-1 suite, which only
collects ``tests/``).  They pin the arithmetic and the transparency the
numbers rest on; they do not assert any speed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from layers import END_TO_END, PER_LAYER  # noqa: E402
from spans import SpanRecorder, self_times, totals  # noqa: E402
from workloads import WORKLOADS, Tracer  # noqa: E402

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_PY = os.path.join(HERE, "run.py")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_self_time_is_duration_minus_what_children_cover():
    # root [0, 10]; a [1, 4]; a1 [2, 3]; b [3.5, 6] overlaps a; c overhangs the root.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 3.5, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
        ["open", 5.0, None, 0, 0],
    ]
    selfs = self_times(spans)
    # children cover [1, 6] and [9, 10] of the root: 6 of its 10 seconds.
    assert selfs[0] == 4.0
    assert selfs[1] == 2.0  # a minus a1
    assert selfs[2] == 1.0 and selfs[3] == 2.5 and selfs[4] == 3.0
    assert selfs[5] == 0.0  # never closed
    by_name = totals(spans, run=0)
    assert by_name["root"] == (10.0, 4.0, 1)
    assert "open" not in by_name


def test_recorder_nests_by_stack_and_rejects_crossed_spans():
    recorder = SpanRecorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.add("leaf", 0.0, 1.0)
    recorder.end(inner)
    recorder.end(outer)
    assert [span[3] for span in recorder.spans] == [-1, 0, 1]
    first = recorder.begin("first")
    recorder.begin("second")
    try:
        recorder.end(first)
    except RuntimeError:
        pass
    else:
        raise AssertionError("closing a span under an open child must fail")


def test_timing_proxy_is_transparent_to_the_engine():
    """greedy-pmtn-migr decides byte-identically with and without the proxy."""
    from repro.core.engine import SimulationConfig, Simulator
    from repro.core.penalties import ReschedulingPenaltyModel
    from repro.schedulers import create_scheduler
    from repro.serve import PlacementLogObserver

    workload = WORKLOADS["sim-loaded-greedy"]()
    workload.setup(seed=2010, quick=True)
    assert workload.num_jobs == 60

    bare_log = PlacementLogObserver()
    bare = Simulator(
        workload.cluster,
        create_scheduler("greedy-pmtn-migr"),
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(300.0)),
        observers=[bare_log],
    ).run(workload.jobs)

    tracer = Tracer()
    unit = workload.run_unit(tracer)
    assert tracer.placement_log.to_json_bytes() == bare_log.to_json_bytes()
    assert unit.sim["sim.max_stretch"] == bare.max_stretch
    assert unit.sim["sim.makespan_s"] == bare.makespan
    assert workload.run_unit().sim == unit.sim
    # The proxy saw every call and kept references for the replays.
    assert len(tracer.scheduler.jobs_per_call) == len(bare.scheduler_times)
    assert tracer.scheduler.captured


def test_benchmark_json_matches_the_harness_tables():
    spec = _benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(row) for row in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(row) for row in PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_PATTERN.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in names and len(spec["per_layer"]) <= 128
    import run

    assert spec["run_seconds"] == run.RUN_SECONDS


def test_quick_suite_exits_zero_and_emits_every_metric():
    done = subprocess.run(
        [sys.executable, RUN_PY, "--quick"], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(HERE, "out", "latest.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == {row[0] for row in END_TO_END}, name
        assert set(entry["per_layer"]) == {row[0] for row in PER_LAYER}, name
        assert all(stats["median"] > 0 for stats in entry["end_to_end"].values()), name
    for metric, *_ in END_TO_END + PER_LAYER:
        assert metric in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-backlog-fcfs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
