"""What ``loadtest --bench-json`` and ``soak --bench-json`` write.

No committed baseline is compared with these entries; the serve and soak
smoke steps of CI read them as they are.  So their fields are pinned here,
each command run end to end through ``repro-dfrs`` on a small trace.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.serve.cli import _DEFAULT_ALGORITHM

NODES = 8
LOADTEST_JOBS = 60
SOAK_JOBS = 40

#: Entry fields that depend on the host, not on the scheduling decisions.
WALL_FIELDS = {"wall_seconds", "placements_per_wall_sec", "peak_rss_mb"}


def _run(argv):
    """``repro-dfrs ARGV``: its exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _loadtest(tmp_path, *extra):
    path = tmp_path / "loadtest.json"
    code, out = _run(
        ["--nodes", str(NODES), "--num-jobs", str(LOADTEST_JOBS), "loadtest",
         "--bench-json", str(path), *extra]
    )
    assert code == 0, out
    return json.loads(path.read_text(encoding="utf-8"))


def _soak(tmp_path, *extra):
    entry_path, log_path = tmp_path / "soak.json", tmp_path / "health.jsonl"
    code, out = _run(
        ["--nodes", str(NODES), "--num-jobs", str(SOAK_JOBS), "soak",
         "--acceleration", "200000", "--wall-seconds", "0.75",
         "--scrape-interval", "0.25", "--max-drain-seconds", "5",
         "--max-rss-slope", "1000", "--min-placements-per-sec", "0.1",
         "--bench-json", str(entry_path), "--health-log", str(log_path),
         *extra]
    )
    entry = json.loads(entry_path.read_text(encoding="utf-8"))
    return code, out, entry, entry_path, log_path


class TestLoadtestEntry:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("loadtest")
        path, prom = tmp / "entry.json", tmp / "page.prom"
        code, out = _run(
            ["--nodes", str(NODES), "--num-jobs", str(LOADTEST_JOBS), "loadtest",
             "--bench-json", str(path), "--prom-out", str(prom)]
        )
        text = path.read_text(encoding="utf-8")
        return code, out, path, text, json.loads(text), prom.read_text(encoding="utf-8")

    def test_exits_zero_and_says_what_it_wrote(self, run):
        code, out, path, *_ = run
        assert code == 0
        assert f"wrote {path}" in out.splitlines()

    def test_the_file_is_sorted_indented_json_with_a_final_newline(self, run):
        _, _, _, text, entry, _ = run
        assert text == json.dumps(entry, indent=2, sort_keys=True) + "\n"

    def test_every_submitted_job_completes(self, run):
        entry = run[4]
        assert entry["jobs_submitted"] == LOADTEST_JOBS
        assert entry["jobs_accepted"] == LOADTEST_JOBS
        assert entry["jobs_rejected"] == entry["jobs_shed"] == 0
        assert entry["completions"] == LOADTEST_JOBS
        assert entry["placements"] >= entry["completions"]

    def test_the_rate_is_placements_over_wall_seconds(self, run):
        entry = run[4]
        assert entry["wall_seconds"] > 0.0
        assert entry["placements_per_wall_sec"] > 0.0
        assert entry["placements_per_wall_sec"] == pytest.approx(
            entry["placements"] / entry["wall_seconds"]
        )
        assert entry["peak_rss_mb"] > 0.0

    def test_the_entry_names_its_run(self, run):
        entry = run[4]
        assert entry["benchmark"] == "serve-loadtest"
        assert entry["workload"] == "lublin-synthetic"
        assert entry["nodes"] == NODES
        assert entry["algorithm"] == _DEFAULT_ALGORITHM
        assert entry["clock"] == "simulated"
        assert entry["acceleration"] is None

    def test_the_entry_agrees_with_the_printed_report(self, run):
        out, entry = run[1], run[4]
        printed = {
            line[:21].strip(): line[21:].strip() for line in out.splitlines()
        }
        assert printed["jobs submitted"] == str(entry["jobs_submitted"])
        assert printed["placements"] == str(entry["placements"])
        assert printed["completions"] == str(entry["completions"])
        assert printed["algorithm"] == entry["algorithm"]

    def test_quantiles_are_ordered(self, run):
        entry = run[4]
        for name in ("queue_latency", "jct"):
            q = entry[name]
            assert 0.0 <= q["p50"] <= q["p90"] <= q["p99"] <= q["max"], name
            assert q["mean"] <= q["max"], name
        assert entry["jct"]["p50"] > 0.0
        assert 0 <= entry["slo_attained"] <= entry["completions"]
        assert entry["slo_attainment"] == pytest.approx(
            entry["slo_attained"] / entry["completions"]
        )

    def test_the_prometheus_page_counts_the_same_placements(self, run):
        entry, page = run[4], run[5]
        assert f"repro_serve_placements_total {entry['placements']}" in page.splitlines()

    def test_a_rerun_repeats_every_decision_field(self, run, tmp_path):
        again = _loadtest(tmp_path)
        first = {k: v for k, v in run[4].items() if k not in WALL_FIELDS}
        assert {k: v for k, v in again.items() if k not in WALL_FIELDS} == first

    def test_a_paced_replay_records_its_clock_and_keeps_the_decisions(self, run, tmp_path):
        paced = _loadtest(tmp_path, "--acceleration", "1000000")
        assert paced["clock"] == "wall"
        assert paced["acceleration"] == 1_000_000.0
        for field in ("placements", "completions", "queue_latency", "jct"):
            assert paced[field] == run[4][field], field


class TestLoadtestOptions:
    def test_a_trace_spec_names_the_workload(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "downey", "num_jobs": 30, "seed": 5}),
                        encoding="utf-8")
        entry = _loadtest(tmp_path, "--trace", str(spec))
        assert entry["workload"] == str(spec)
        assert entry["nodes"] == NODES
        assert entry["jobs_submitted"] == entry["completions"] == 30

    def test_admission_rejections_are_counted(self, tmp_path):
        policy = {"type": "bounded-queue", "max_pending": 1, "mode": "reject"}
        entry = _loadtest(tmp_path, "--admission", json.dumps(policy))
        assert entry["jobs_rejected"] > 0
        assert entry["jobs_accepted"] + entry["jobs_rejected"] == LOADTEST_JOBS
        assert entry["completions"] == entry["jobs_accepted"]

    def test_without_bench_json_nothing_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = _run(["--nodes", str(NODES), "--num-jobs", "20", "loadtest"])
        assert code == 0
        assert "wrote" not in out
        assert list(tmp_path.iterdir()) == []


class TestSoakEntry:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return _soak(tmp_path_factory.mktemp("soak"), "--quiet")

    def test_a_healthy_soak_exits_zero(self, run):
        code, out, entry, path, _ = run
        assert code == 0, out
        assert entry["healthy"] is True
        assert entry["violations"] == []
        assert f"wrote {path}" in out.splitlines()
        assert "healthy: all soak invariants held" in out

    def test_samples_match_the_health_log_lines(self, run):
        entry, log = run[2], run[4]
        lines = log.read_text(encoding="utf-8").splitlines()
        assert entry["samples"] == len(lines) >= 1
        assert all(json.loads(line)["rss_mb"] > 0.0 for line in lines)

    def test_the_entry_names_its_run(self, run):
        entry = run[2]
        assert entry["benchmark"] == "serve-soak"
        assert entry["algorithm"] == _DEFAULT_ALGORITHM
        assert entry["nodes"] == NODES
        assert entry["acceleration"] == 200_000.0
        assert entry["workload"] == "diurnal-poisson-seed2010"

    def test_a_drained_soak_completes_what_it_admitted(self, run):
        entry = run[2]
        assert entry["drained"] is True
        assert 0 < entry["jobs_submitted"] <= SOAK_JOBS
        assert entry["jobs_accepted"] == entry["jobs_submitted"]
        assert entry["completions"] == entry["jobs_accepted"]
        assert entry["placements_per_wall_sec"] == pytest.approx(
            entry["placements"] / entry["wall_seconds"]
        )

    def test_quiet_prints_no_progress_lines(self, run):
        out = run[1]
        assert not [line for line in out.splitlines() if line.startswith("  t=")]


def test_an_unhealthy_soak_exits_one_and_still_writes_its_entry(tmp_path):
    code, out, entry, _, _ = _soak(tmp_path, "--quiet", "--min-placements-per-sec", "1e12")
    assert code == 1
    assert entry["healthy"] is False
    assert entry["violations"]
    for violation in entry["violations"]:
        assert f"UNHEALTHY: {violation}" in out.splitlines()
