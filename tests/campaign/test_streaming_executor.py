"""Streaming campaign execution: bounded memory, exact per-cell merges."""

from __future__ import annotations

import json

import pytest

from repro.campaign import Campaign, CampaignResult
from repro.campaign.scenario import (
    CollectorSpec,
    CustomSource,
    GeneratorSource,
    Scenario,
)
from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.traces.model import Workload

CLUSTER = Cluster(32, 4, 8.0)


def _scenario(**overrides) -> Scenario:
    options = dict(
        name="stream-exec",
        source=GeneratorSource(
            model="diurnal-poisson",
            instances=2,
            seed_base=7,
            # Sub-critical load keeps the active-job population (and the
            # suite runtime) small without losing stretch spread.
            options={
                "num_jobs": 400,
                "mean_interarrival_seconds": 300.0,
                "runtime_log_mean": 5.0,
                "runtime_log_sigma": 1.2,
                "max_runtime_seconds": 14400.0,
            },
        ),
        algorithms=("fcfs",),
        cluster=CLUSTER,
        collectors=(CollectorSpec("stretch"), CollectorSpec("costs")),
    )
    options.update(overrides)
    return Scenario(**options)


class TestStreamingExecution:
    def test_one_merged_row_per_cell_algorithm(self):
        outcome = Campaign(streaming=True).run(_scenario(algorithms=("fcfs", "easy")))
        assert len(outcome.rows) == 2
        for row in outcome.rows:
            assert row.instance_index == -1  # merged across instances
            assert row.metric("num_jobs") == 800  # both instances pooled
            for name in ("stretch_p50", "stretch_p90", "stretch_p99",
                         "max_stretch", "worst_job_id", "pmtn_per_job",
                         "peak_resident_jobs"):
                assert name in row.metrics

    def test_merged_extremes_match_materialized_runs(self):
        scenario = _scenario()
        streamed = Campaign(streaming=True).run(scenario)
        materialized = Campaign().run(scenario)
        per_instance_max = [
            row.metric("max_stretch") for row in materialized.rows
        ]
        merged = streamed.rows[0]
        # max is tracked exactly, so the merged row is the exact max over
        # the cell's instances; job counts pool exactly.
        assert merged.metric("max_stretch") == max(per_instance_max)
        assert merged.metric("num_jobs") == sum(
            row.metric("num_jobs") for row in materialized.rows
        )

    def test_load_axis_rescales_streams(self):
        scenario = _scenario(sweep=(("load", (0.3, 0.7)),))
        outcome = Campaign(streaming=True).run(scenario)
        assert len(outcome.rows) == 2
        low, high = outcome.rows
        assert low.params_dict()["load"] == 0.3
        # Higher offered load must hurt (or at least not improve) stretch.
        assert high.metric("mean_stretch") >= low.metric("mean_stretch")

    def test_empty_source_rejected(self):
        from repro.campaign.scenario import WorkloadSource

        class NoInstances(WorkloadSource):
            def streaming_sources(self, cluster):
                return []

        scenario = _scenario(source=NoInstances())
        with pytest.raises(ConfigurationError, match="no.*streaming instances"):
            Campaign(streaming=True).run(scenario)

    def test_peak_resident_jobs_is_bounded(self):
        outcome = Campaign(streaming=True).run(_scenario())
        assert outcome.rows[0].metric("peak_resident_jobs") < 400

    def test_workers_match_serial(self):
        scenario = _scenario(algorithms=("fcfs", "easy"))
        serial = Campaign(streaming=True).run(scenario)
        parallel = Campaign(streaming=True, workers=2).run(scenario)
        assert [row.to_dict() for row in serial.rows] == [
            row.to_dict() for row in parallel.rows
        ]

    def test_non_streaming_collector_rejected(self):
        # "timing" ships raw per-event vectors, which bounded memory cannot
        # keep; "utilization" streams on its O(1) busy-node observer (see
        # test_utilization_collector_streams).
        scenario = _scenario(collectors=(CollectorSpec("timing"),))
        with pytest.raises(ConfigurationError, match="timing"):
            Campaign(streaming=True).run(scenario)

    def test_utilization_collector_streams(self):
        scenario = _scenario(collectors=(CollectorSpec("utilization"),))
        outcome = Campaign(streaming=True).run(scenario)
        row = outcome.rows[0]
        assert row.metric("mean_busy_nodes") > 0.0
        assert row.metric("peak_busy_nodes") > 0.0
        assert row.metric("energy_always_on_joules") > 0.0
        # Busy + idle node-seconds partition the duration exactly.
        total = (
            row.metric("energy_busy_node_seconds")
            + row.metric("energy_idle_node_seconds")
        )
        assert total == pytest.approx(
            row.metric("energy_duration_seconds") * CLUSTER.num_nodes, rel=1e-9
        )

    def test_per_instance_observer_columns_match_materialized(self):
        # utilization and goodput measure through their own observers in
        # both modes, so a per-instance streaming row carries the
        # materialized peak, totals and window extremes bit for bit.
        scenario = _scenario(
            collectors=(CollectorSpec("utilization"), CollectorSpec("goodput"))
        )
        materialized = Campaign().run(scenario)
        streamed = Campaign(streaming=True, merge_instances=False).run(scenario)
        assert len(streamed.rows) == len(materialized.rows) == 2
        for exact, row in zip(materialized.rows, streamed.rows):
            for column in (
                "peak_busy_nodes",
                "platform_energy_joules",
                "jobs_per_hour",
                "goodput_node_seconds",
                "goodput_fraction",
                "goodput_windows",
                "min_window_jobs_per_hour",
                "max_window_jobs_per_hour",
                "min_window_goodput",
            ):
                assert row.metric(column) == exact.metric(column), column
            for column in ("mean_busy_nodes", "energy_busy_node_seconds"):
                assert row.metric(column) == pytest.approx(
                    exact.metric(column), rel=1e-12
                ), column

    def test_swf_with_segments_warns_and_materializes(self, tmp_path):
        # Satellite: fixed-duration segmentation cannot stream; instead of a
        # hard error the campaign announces the fallback and runs the
        # materialized path (rows per instance, not merged).
        from repro.campaign.scenario import SwfSource

        path = tmp_path / "sorted.swf"
        path.write_text(
            "1 0 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "2 500 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "3 2000 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n",
            encoding="utf-8",
        )
        scenario = _scenario(
            source=SwfSource(path=str(path), segment_seconds=1500.0)
        )
        with pytest.warns(UserWarning, match="segment_seconds"):
            outcome = Campaign(streaming=True).run(scenario)
        # Materialized shape: one row per (instance, algorithm), no merge.
        assert len(outcome.rows) == 2
        assert all(row.instance_index >= 0 for row in outcome.rows)

    def test_worst_job_id_is_the_exact_max(self):
        scenario = _scenario()
        streamed = Campaign(streaming=True).run(scenario)
        materialized = Campaign().run(scenario)
        worst_instance = max(
            materialized.rows, key=lambda row: row.metric("max_stretch")
        )
        merged = streamed.rows[0]
        assert merged.metric("max_stretch") == worst_instance.metric("max_stretch")
        assert isinstance(merged.metric("worst_job_id"), int)

    def test_out_of_order_swf_fails_fast(self, tmp_path):
        # SWF archives are submit-ordered only by convention; the streaming
        # path must reject an unsorted one before simulating, not mid-run.
        from repro.campaign.scenario import SwfSource

        path = tmp_path / "unsorted.swf"
        path.write_text(
            "; Computer: test\n"
            "1 0 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "2 2000 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "3 500 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n",
            encoding="utf-8",
        )
        scenario = _scenario(source=SwfSource(path=str(path)))
        with pytest.raises(ConfigurationError, match="not arrival-ordered"):
            Campaign(streaming=True).run(scenario)

    def test_out_of_order_swf_caught_under_transform_chain(self, tmp_path):
        from repro.campaign.scenario import TransformSource
        from repro.traces import Head, SwfTraceSource

        path = tmp_path / "unsorted.swf"
        path.write_text(
            "1 0 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "2 2000 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "3 500 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n",
            encoding="utf-8",
        )
        chain = SwfTraceSource(path=str(path)).transformed(Head(count=3))
        scenario = _scenario(source=TransformSource(source=chain))
        with pytest.raises(ConfigurationError, match="not arrival-ordered"):
            Campaign(streaming=True).run(scenario)

    def test_cached_rerun_skips_trace_parsing(self, tmp_path):
        # A fully cached rerun must not re-read the archive at all — prove
        # it by deleting the trace file between runs.
        from repro.campaign.scenario import SwfSource

        path = tmp_path / "sorted.swf"
        path.write_text(
            "1 0 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "2 500 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n"
            "3 2000 0 100 4 -1 0.5 4 100 -1 1 0 0 0 0 0 0 0\n",
            encoding="utf-8",
        )
        scenario = _scenario(source=SwfSource(path=str(path)))
        cache = tmp_path / "cache"
        first = Campaign(streaming=True, cache_dir=cache).run(scenario)
        path.unlink()
        second = Campaign(streaming=True, cache_dir=cache).run(scenario)
        assert [row.to_dict() for row in second.rows] == [
            row.to_dict() for row in first.rows
        ]

    def test_non_streaming_source_rejected(self):
        def factory(cluster):
            return [Workload("custom", cluster, [])]

        scenario = _scenario(source=CustomSource(factory=factory, key="x"))
        with pytest.raises(ConfigurationError, match="cannot stream"):
            Campaign(streaming=True).run(scenario)

    def test_cache_resume_and_isolation(self, tmp_path):
        scenario = _scenario()
        first = Campaign(streaming=True, cache_dir=tmp_path).run(scenario)
        # A cached rerun reloads the merged rows without re-simulating.
        second = Campaign(streaming=True, cache_dir=tmp_path).run(scenario)
        assert [row.to_dict() for row in first.rows] == [
            row.to_dict() for row in second.rows
        ]
        # The streaming cache must never collide with the materialized one.
        materialized = Campaign(cache_dir=tmp_path).run(scenario)
        assert materialized.scenario_hash != first.scenario_hash
        assert len(materialized.rows) == 2  # per-instance rows, not merged

    def test_load_measured_once_per_instance(self):
        # The offered-load measurement pass must run once per instance in
        # the parent, not once per (cell x algorithm) worker task.
        from repro.campaign.scenario import WorkloadSource
        from repro.traces import CallableTraceSource, DiurnalPoissonTraceSource

        passes = {"count": 0}
        base = DiurnalPoissonTraceSource(
            num_jobs=120,
            seed=5,
            mean_interarrival_seconds=300.0,
            runtime_log_mean=5.0,
            runtime_log_sigma=1.0,
        )

        def counted(cluster):
            passes["count"] += 1
            return base.jobs(cluster)

        class CountedSource(WorkloadSource):
            kind = "counted"

            def streaming_sources(self, cluster):
                return [CallableTraceSource(factory=counted, key="counted")]

            def to_dict(self):
                return {"type": self.kind}

        scenario = _scenario(
            source=CountedSource(),
            algorithms=("fcfs", "easy"),
            sweep=(("load", (0.3, 0.7)),),
        )
        Campaign(streaming=True).run(scenario)
        # 1 measurement + 2 loads x 2 algorithms simulations = 5 passes
        # (the pre-fix behaviour measured inside every task: 8 passes).
        assert passes["count"] == 5

    def test_streaming_digest_is_pinned(self):
        # The digest still folds in the sketch accuracy (0.01) every
        # streaming run has used, so cache files written before it became a
        # constant keep hitting: these are the digests they were stored under.
        scenario = _scenario()
        assert Campaign(streaming=True)._streaming_digest(scenario) == "46d7b3fa12151cd5"
        per_instance = Campaign(streaming=True, merge_instances=False)
        assert per_instance._streaming_digest(scenario) == "6582203ccd00d23a"


class TestMergeInstances:
    """Satellite: ``merge_instances=False`` ships per-instance rows unmerged."""

    def test_one_row_per_instance_algorithm(self):
        outcome = Campaign(streaming=True, merge_instances=False).run(
            _scenario(algorithms=("fcfs", "easy"))
        )
        # 2 instances x 2 algorithms, real instance indices — the
        # materialized path's row shape with sketched quantile columns.
        assert sorted(
            (row.instance_index, row.algorithm) for row in outcome.rows
        ) == [(0, "easy"), (0, "fcfs"), (1, "easy"), (1, "fcfs")]
        for row in outcome.rows:
            assert row.metric("num_jobs") == 400
            assert "stretch_p99" in row.metrics

    def test_per_instance_rows_pool_to_the_merged_row(self):
        scenario = _scenario()
        merged = Campaign(streaming=True).run(scenario).rows[0]
        per = Campaign(streaming=True, merge_instances=False).run(scenario)
        # Exact statistics of the merged row are exactly the pool of the
        # per-instance rows (max is tracked exactly; counts are sums).
        assert merged.metric("num_jobs") == sum(
            row.metric("num_jobs") for row in per.rows
        )
        assert merged.metric("max_stretch") == max(
            row.metric("max_stretch") for row in per.rows
        )

    def test_per_instance_rows_match_materialized_exact_columns(self):
        scenario = _scenario()
        per = Campaign(streaming=True, merge_instances=False).run(scenario)
        materialized = Campaign().run(scenario)
        for stream_row, mat_row in zip(per.rows, materialized.rows):
            assert stream_row.instance_index == mat_row.instance_index
            assert stream_row.metric("num_jobs") == mat_row.metric("num_jobs")
            assert stream_row.metric("max_stretch") == mat_row.metric(
                "max_stretch"
            )

    def test_modes_never_share_cache_entries(self, tmp_path):
        scenario = _scenario()
        merged = Campaign(streaming=True, cache_dir=tmp_path).run(scenario)
        per = Campaign(
            streaming=True, cache_dir=tmp_path, merge_instances=False
        ).run(scenario)
        assert merged.scenario_hash != per.scenario_hash
        # Each mode still resumes from its own cache.
        rerun = Campaign(
            streaming=True, cache_dir=tmp_path, merge_instances=False
        ).run(scenario)
        assert [row.to_dict() for row in rerun.rows] == [
            row.to_dict() for row in per.rows
        ]

    def test_json_and_csv_round_trip_per_instance_rows(self, tmp_path):
        outcome = Campaign(streaming=True, merge_instances=False).run(
            _scenario()
        )
        json_path = tmp_path / "per-instance.json"
        outcome.to_json(json_path)
        restored = CampaignResult.from_json(json_path)
        assert [row.to_dict() for row in restored.rows] == [
            row.to_dict() for row in outcome.rows
        ]
        csv_path = tmp_path / "per-instance.rows.csv"
        outcome.rows_to_csv(csv_path)
        rows = CampaignResult.rows_from_csv(csv_path)
        assert [row.to_dict() for row in rows] == [
            row.to_dict() for row in outcome.rows
        ]
        assert [row.instance_index for row in rows] == [0, 1]


class TestStreamingExportRoundTrip:
    """Satellite: JSON/CSV export stays lossless for the new summary rows."""

    def test_json_round_trip(self, tmp_path):
        outcome = Campaign(streaming=True).run(_scenario())
        path = tmp_path / "streaming.json"
        outcome.to_json(path)
        restored = CampaignResult.from_json(path)
        assert [row.to_dict() for row in restored.rows] == [
            row.to_dict() for row in outcome.rows
        ]
        for name in ("stretch_p50", "stretch_p90", "stretch_p99"):
            assert restored.rows[0].metric(name) == outcome.rows[0].metric(name)

    def test_csv_round_trip(self, tmp_path):
        outcome = Campaign(streaming=True).run(
            _scenario(sweep=(("load", (0.5,)),))
        )
        path = tmp_path / "streaming.rows.csv"
        outcome.rows_to_csv(path)
        rows = CampaignResult.rows_from_csv(path)
        assert [row.to_dict() for row in rows] == [
            row.to_dict() for row in outcome.rows
        ]
        # The merged-row marker and the quantile columns survive typed.
        assert rows[0].instance_index == -1
        assert isinstance(rows[0].metric("stretch_p99"), float)

    def test_format_summary_renders_quantile_columns(self):
        outcome = Campaign(streaming=True).run(_scenario())
        text = outcome.format_summary()
        assert "stretch_p99" in text
        assert "max_stretch" in text


class TestStreamingCli:
    def test_run_spec_with_streaming_flag(self, tmp_path, capsys):
        from repro.cli import main

        spec = {
            "name": "cli-streaming",
            "cluster": {"nodes": 32, "cores_per_node": 4, "node_memory_gb": 8.0},
            "source": {
                "type": "generator",
                "model": "diurnal-poisson",
                "instances": 2,
                "seed_base": 7,
                "options": {"num_jobs": 150, "mean_interarrival_seconds": 300.0},
            },
            "algorithms": ["fcfs"],
            "collectors": ["stretch"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        export_dir = tmp_path / "artifacts"
        assert main(
            ["--streaming-metrics", "--export-dir", str(export_dir),
             "run", str(spec_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "stretch_p99" in output
        csv_files = list(export_dir.glob("*.rows.csv"))
        assert len(csv_files) == 1
        assert "metric:stretch_p99" in csv_files[0].read_text(encoding="utf-8")

    def test_compare_subcommand_streams(self, capsys):
        from repro.cli import main

        assert main(
            ["--streaming-metrics", "--num-jobs", "60", "--num-traces", "1",
             "--algorithms", "fcfs", "compare", "--load", "0.5"]
        ) == 0
        assert "max stretch" in capsys.readouterr().out

    def test_paper_drivers_refuse_streaming_flag(self, capsys):
        # Merged per-cell rows would silently change the per-instance
        # degradation estimator of the paper artifacts — refuse loudly.
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--streaming-metrics", "paper"])
        assert "per-instance degradation" in capsys.readouterr().err
