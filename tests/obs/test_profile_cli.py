"""``repro-dfrs profile run|replay --flight-out``: both export formats, the
dropped-events notice of a small ring, and the orphan-flag check; the packing
counters of a DYNMCB8-ASAP-PER run in the profile table and on the Prometheus
page."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.serve import SchedulerService
from repro.traces import LublinTraceSource

#: 30 Lublin jobs on 8 nodes with exponential failures: a run has kills.
SCENARIO = {
    "name": "flight-smoke",
    "source": {"type": "lublin", "num_traces": 1, "num_jobs": 30, "seed_base": 2010},
    "platform": {"type": "homogeneous", "nodes": 8, "failure_policy": "resubmit", "events": {
        "type": "exponential", "mtbf_seconds": 2e4, "mttr_seconds": 1800.0,
        "horizon_seconds": 2e5, "seed": 3,
    }},
    "algorithms": ["greedy-pmtn-migr"],
}


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO), encoding="utf-8")
    return str(path)


def _profile(mode, spec, out, capsys, *extra):
    assert main(["profile", mode, spec, "--flight-out", str(out), *extra]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("mode", ["run", "replay"])
def test_jsonl_and_chrome_trace_outputs(mode, spec, tmp_path, capsys):
    lines_path = tmp_path / "flight.jsonl"
    printed = _profile(mode, spec, lines_path, capsys)
    events = [json.loads(line) for line in lines_path.read_text().splitlines()]
    assert f"wrote {lines_path} ({len(events)} events)" in printed
    kinds = {event["kind"] for event in events}
    assert {"submit", "start", "complete", "failure-kill"} <= kinds
    assert "dropped" not in printed

    trace_path = tmp_path / "flight.json"
    printed = _profile(mode, spec, trace_path, capsys)
    assert "Perfetto lanes" in printed
    trace = json.loads(trace_path.read_text())
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    instants = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
    assert slices and "failure-kill" in instants
    assert trace["otherData"] == {
        "source": "repro-dfrs flight recorder", "events": len(events), "dropped": 0
    }


def test_small_ring_reports_dropped_events(spec, tmp_path, capsys):
    out = tmp_path / "flight.jsonl"
    printed = _profile("run", spec, out, capsys, "--flight-capacity", "50")
    assert len(out.read_text().splitlines()) == 50
    assert "flight ring dropped" in printed and "oldest events" in printed


@pytest.mark.parametrize("mode", ["run", "replay"])
def test_flight_capacity_needs_flight_out(mode, spec):
    with pytest.raises(ConfigurationError, match="--flight-out"):
        main(["profile", mode, spec, "--flight-capacity", "50"])


def test_reused_searches_in_profile_table_and_prometheus_page(tmp_path, capsys):
    """Periodic repacks with an unchanged job set reuse the previous search."""
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps({
        "name": "repack-memo",
        "source": {"type": "lublin", "num_traces": 1, "num_jobs": 30, "seed_base": 2010},
        "platform": {"type": "homogeneous", "nodes": 8},
        "algorithms": ["dynmcb8-asap-per-600"],
    }), encoding="utf-8")
    assert main(["profile", "run", str(path)]) == 0
    counters = {
        name: int(value)
        for name, value in re.findall(r"^(packing\.\w+) +(\d+)$", capsys.readouterr().out, re.M)
    }
    assert counters["packing.searches_reused"] > 0
    assert counters["packing.probes"] - counters["packing.probes_pruned"] == counters["packing.packs"]

    config = SimulationConfig(telemetry={"type": "stats"})
    service = SchedulerService(Cluster(8), "dynmcb8-asap-per-600", config=config)
    service.replay(LublinTraceSource(num_jobs=30, seed=2010))
    reused = service.telemetry.counters["packing.searches_reused"]
    assert reused > 0
    assert f"repro_engine_packing_searches_reused_total {reused}\n" in service.prometheus_text()
