"""Tests for workload characterization."""

from __future__ import annotations

import pytest

from repro.core import Cluster, JobSpec
from repro.exceptions import WorkloadError
from repro.traces import (
    LublinWorkloadGenerator,
    Workload,
    characterization_table,
    characterize,
    size_histogram,
)

CLUSTER = Cluster(num_nodes=16, cores_per_node=4, node_memory_gb=8.0)


def _workload(specs, name="test"):
    return Workload(name, CLUSTER, specs)


def _spec(job_id, submit=0.0, tasks=1, cpu=0.25, mem=0.1, runtime=100.0):
    return JobSpec(job_id, submit, tasks, cpu, mem, runtime)


class TestCharacterize:
    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError):
            characterize(_workload([]))

    def test_serial_fraction(self):
        specs = [_spec(0, tasks=1), _spec(1, tasks=1), _spec(2, tasks=4)]
        profile = characterize(_workload(specs))
        assert profile.serial_fraction == pytest.approx(2 / 3)

    def test_memory_threshold_fraction(self):
        specs = [
            _spec(0, mem=0.1),
            _spec(1, mem=0.3),
            _spec(2, mem=0.5),
            _spec(3, mem=0.9),
        ]
        profile = characterize(_workload(specs))
        assert profile.fraction_memory_under_40pct == pytest.approx(0.5)

    def test_cpu_threshold_fraction(self):
        specs = [_spec(0, cpu=0.25), _spec(1, cpu=0.25), _spec(2, cpu=1.0), _spec(3, cpu=0.5)]
        profile = characterize(_workload(specs))
        assert profile.fraction_cpu_under_50pct == pytest.approx(0.5)

    def test_custom_thresholds(self):
        specs = [_spec(0, mem=0.2), _spec(1, mem=0.6)]
        profile = characterize(_workload(specs), memory_threshold=0.7)
        assert profile.fraction_memory_under_40pct == pytest.approx(1.0)

    def test_invalid_thresholds_rejected(self):
        workload = _workload([_spec(0)])
        with pytest.raises(WorkloadError):
            characterize(workload, memory_threshold=0.0)
        with pytest.raises(WorkloadError):
            characterize(workload, cpu_threshold=1.5)

    def test_demand_and_runtime_statistics(self):
        specs = [_spec(0, tasks=2, runtime=100.0), _spec(1, tasks=4, runtime=50.0, submit=60.0)]
        profile = characterize(_workload(specs))
        assert profile.total_demand_node_seconds == pytest.approx(400.0)
        assert profile.mean_runtime_seconds == pytest.approx(75.0)
        assert profile.mean_interarrival_seconds == pytest.approx(60.0)

    def test_as_dict_round_trip(self):
        profile = characterize(_workload([_spec(0), _spec(1, submit=10.0)]))
        data = profile.as_dict()
        assert data["num_jobs"] == 2.0
        assert "fraction_memory_under_40pct" in data

    def test_lublin_traces_match_paper_motivation(self):
        # The synthetic annotation model (§IV-C) makes serial tasks 25% CPU
        # and most memory requirements small; the motivating observation that
        # many jobs under-use nodes must therefore hold.
        workload = LublinWorkloadGenerator(Cluster(128, 4, 8.0)).generate(300, seed=7)
        profile = characterize(workload)
        assert profile.fraction_memory_under_40pct >= 0.5
        assert 0.0 <= profile.fraction_cpu_under_50pct <= 1.0
        assert profile.serial_fraction == pytest.approx(
            profile.fraction_cpu_under_50pct, abs=1e-9
        )


class TestSizeHistogram:
    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            size_histogram(_workload([]))

    def test_buckets_are_powers_of_two(self):
        specs = [_spec(0, tasks=1), _spec(1, tasks=2), _spec(2, tasks=3), _spec(3, tasks=8)]
        histogram = size_histogram(_workload(specs))
        labels = [label for label, _ in histogram]
        assert labels == ["1", "2-3", "8-15"]
        counts = dict(histogram)
        assert counts["2-3"] == 2

    def test_counts_sum_to_job_count(self):
        workload = LublinWorkloadGenerator(CLUSTER).generate(100, seed=3)
        histogram = size_histogram(workload)
        assert sum(count for _, count in histogram) == workload.num_jobs


class TestCharacterizationTable:
    def test_renders_one_row_per_workload(self):
        profiles = [
            characterize(_workload([_spec(0), _spec(1, submit=5.0)], name="alpha")),
            characterize(_workload([_spec(0, tasks=4)], name="beta")),
        ]
        table = characterization_table(profiles)
        assert "alpha" in table
        assert "beta" in table
        assert len(table.splitlines()) == 4  # header + separator + 2 rows

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            characterization_table([])


class TestCharacterizeStream:
    """The single-pass streaming twin must agree with the materialized path."""

    def _parity_workload(self):
        return LublinWorkloadGenerator(CLUSTER).generate(300, seed=11)

    def test_matches_materialized_characterize(self):
        from repro.traces import characterize_stream

        workload = self._parity_workload()
        exact = characterize(workload)
        profile, histogram = characterize_stream(
            iter(workload.jobs), CLUSTER, name=workload.name
        )
        assert profile.num_jobs == exact.num_jobs
        assert profile.serial_fraction == exact.serial_fraction
        assert profile.fraction_memory_under_40pct == exact.fraction_memory_under_40pct
        assert profile.fraction_cpu_under_50pct == exact.fraction_cpu_under_50pct
        assert profile.max_tasks == exact.max_tasks
        assert profile.span_seconds == exact.span_seconds
        assert profile.offered_load == pytest.approx(exact.offered_load, rel=1e-12)
        assert profile.mean_tasks == pytest.approx(exact.mean_tasks, rel=1e-12)
        assert profile.mean_runtime_seconds == pytest.approx(
            exact.mean_runtime_seconds, rel=1e-12
        )
        assert profile.mean_interarrival_seconds == pytest.approx(
            exact.mean_interarrival_seconds, rel=1e-12
        )
        assert profile.total_demand_node_seconds == pytest.approx(
            exact.total_demand_node_seconds, rel=1e-12
        )
        # Quantile statistics are nearest-rank estimates within the sketch's
        # documented 0.1 % bound (np.median/np.percentile interpolate between
        # order statistics, so compare against the nearest-rank references).
        import math

        import numpy as np

        runtimes = np.sort([spec.execution_time for spec in workload.jobs])

        def nearest_rank(q):
            return float(runtimes[max(1, math.ceil(q * runtimes.size - 1e-9)) - 1])

        assert profile.median_runtime_seconds == pytest.approx(
            nearest_rank(0.5), rel=2e-3
        )
        assert profile.p95_runtime_seconds == pytest.approx(
            nearest_rank(0.95), rel=2e-3
        )
        # The width histogram is exact and identical to size_histogram.
        assert histogram == size_histogram(workload)

    def test_is_single_pass(self):
        from repro.traces import characterize_stream

        workload = self._parity_workload()
        profile, _ = characterize_stream(iter(workload.jobs), CLUSTER)
        assert profile.num_jobs == workload.num_jobs

    def test_empty_stream_rejected(self):
        from repro.traces import characterize_stream

        with pytest.raises(WorkloadError, match="empty"):
            characterize_stream(iter(()), CLUSTER, name="nothing")

    def test_single_job_stream(self):
        from repro.traces import characterize_stream

        profile, histogram = characterize_stream(
            iter([_spec(0, tasks=4, runtime=50.0)]), CLUSTER
        )
        assert profile.num_jobs == 1
        assert profile.mean_interarrival_seconds == 0.0
        assert profile.median_runtime_seconds == 50.0
        assert histogram == [("4-7", 1)]

    def test_bad_thresholds_rejected(self):
        from repro.traces import characterize_stream

        with pytest.raises(WorkloadError):
            characterize_stream(iter([_spec(0)]), CLUSTER, memory_threshold=0.0)
        with pytest.raises(WorkloadError):
            characterize_stream(iter([_spec(0)]), CLUSTER, cpu_threshold=1.5)

    def test_out_of_order_stream_matches_sorted_semantics(self):
        # Archive traces are submit-ordered only by convention; a stray
        # out-of-order record must not corrupt span/load/inter-arrival.
        from repro.traces import characterize_stream

        specs = [
            _spec(0, submit=0.0),
            _spec(1, submit=1000.0),
            _spec(2, submit=2000.0),
            _spec(3, submit=500.0),
        ]
        exact = characterize(_workload(list(specs)))
        profile, _ = characterize_stream(iter(specs), CLUSTER)
        assert profile.span_seconds == exact.span_seconds == 2000.0
        assert profile.offered_load == pytest.approx(exact.offered_load, rel=1e-12)
        assert profile.mean_interarrival_seconds == pytest.approx(
            exact.mean_interarrival_seconds, rel=1e-12
        )
