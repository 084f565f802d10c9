"""Tests for workload characterization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Cluster, JobSpec
from repro.exceptions import WorkloadError
from repro.traces import (
    LublinWorkloadGenerator,
    Workload,
    characterization_table,
    characterize_stream,
)
from repro.traces.characterization import CPU_THRESHOLD, MEMORY_THRESHOLD

from . import reference_characterization as reference

CLUSTER = Cluster(num_nodes=16, cores_per_node=4, node_memory_gb=8.0)

#: The sketch's documented 0.1 % bound, with headroom for float rounding.
QUANTILE_REL = 2e-3


def _workload(specs, name="test"):
    return Workload(name, CLUSTER, specs)


def _spec(job_id, submit=0.0, tasks=1, cpu=0.25, mem=0.1, runtime=100.0):
    return JobSpec(job_id, submit, tasks, cpu, mem, runtime)


def _profile(specs, **options):
    profile, _ = characterize_stream(iter(specs), CLUSTER, **options)
    return profile


def _histogram(specs):
    _, histogram = characterize_stream(iter(specs), CLUSTER)
    return histogram


def _nearest_rank(values, q):
    ordered = np.sort(values)
    return float(ordered[max(1, math.ceil(q * ordered.size - 1e-9)) - 1])


class TestCharacterize:
    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError, match="empty"):
            characterize_stream(_workload([]).jobs, CLUSTER)

    def test_serial_fraction(self):
        specs = [_spec(0, tasks=1), _spec(1, tasks=1), _spec(2, tasks=4)]
        profile = _profile(specs)
        assert profile.serial_fraction == pytest.approx(2 / 3)

    def test_memory_threshold_fraction(self):
        specs = [
            _spec(0, mem=0.1),
            _spec(1, mem=0.3),
            _spec(2, mem=0.5),
            _spec(3, mem=0.9),
        ]
        profile = _profile(specs)
        assert profile.fraction_memory_under_40pct == pytest.approx(0.5)

    def test_cpu_threshold_fraction(self):
        specs = [_spec(0, cpu=0.25), _spec(1, cpu=0.25), _spec(2, cpu=1.0), _spec(3, cpu=0.5)]
        profile = _profile(specs)
        assert profile.fraction_cpu_under_50pct == pytest.approx(0.5)

    def test_a_job_at_a_cutoff_is_not_under_it(self):
        assert (MEMORY_THRESHOLD, CPU_THRESHOLD) == (0.4, 0.5)
        specs = [_spec(0, mem=0.4, cpu=0.5), _spec(1, mem=0.39, cpu=0.49)]
        profile = _profile(specs)
        assert profile.fraction_memory_under_40pct == 0.5
        assert profile.fraction_cpu_under_50pct == 0.5

    def test_demand_and_runtime_statistics(self):
        specs = [_spec(0, tasks=2, runtime=100.0), _spec(1, tasks=4, runtime=50.0, submit=60.0)]
        profile = _profile(specs)
        assert profile.total_demand_node_seconds == pytest.approx(400.0)
        assert profile.mean_runtime_seconds == pytest.approx(75.0)
        assert profile.mean_interarrival_seconds == pytest.approx(60.0)

    def test_name_is_passed_through(self):
        assert _profile([_spec(0)]).name == "stream"
        assert _profile([_spec(0)], name="alpha").name == "alpha"

    def test_lublin_traces_match_paper_motivation(self):
        # The synthetic annotation model (§IV-C) makes serial tasks 25% CPU
        # and most memory requirements small; the motivating observation that
        # many jobs under-use nodes must therefore hold.
        workload = LublinWorkloadGenerator(Cluster(128, 4, 8.0)).generate(300, seed=7)
        profile, _ = characterize_stream(workload.jobs, workload.cluster)
        assert profile.fraction_memory_under_40pct >= 0.5
        assert 0.0 <= profile.fraction_cpu_under_50pct <= 1.0
        assert profile.serial_fraction == pytest.approx(
            profile.fraction_cpu_under_50pct, abs=1e-9
        )


class TestSizeHistogram:
    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            _histogram([])

    def test_buckets_are_powers_of_two(self):
        specs = [_spec(0, tasks=1), _spec(1, tasks=2), _spec(2, tasks=3), _spec(3, tasks=8)]
        histogram = _histogram(specs)
        labels = [label for label, _ in histogram]
        assert labels == ["1", "2-3", "8-15"]
        counts = dict(histogram)
        assert counts["2-3"] == 2

    def test_counts_sum_to_job_count(self):
        workload = LublinWorkloadGenerator(CLUSTER).generate(100, seed=3)
        histogram = _histogram(workload.jobs)
        assert sum(count for _, count in histogram) == workload.num_jobs


class TestCharacterizationTable:
    def test_renders_one_row_per_workload(self):
        profiles = [
            _profile([_spec(0), _spec(1, submit=5.0)], name="alpha"),
            _profile([_spec(0, tasks=4)], name="beta"),
        ]
        table = characterization_table(profiles)
        assert "alpha" in table
        assert "beta" in table
        assert len(table.splitlines()) == 4  # header + separator + 2 rows

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            characterization_table([])


def _assert_matches_reference(specs):
    """``characterize_stream`` of ``specs`` against the materialized oracle."""
    workload = _workload(list(specs))
    exact = reference.characterize(workload)
    profile, histogram = characterize_stream(iter(specs), CLUSTER, name=workload.name)
    assert profile.name == exact.name
    assert profile.num_jobs == exact.num_jobs
    assert profile.serial_fraction == exact.serial_fraction
    assert profile.fraction_memory_under_40pct == exact.fraction_memory_under_40pct
    assert profile.fraction_cpu_under_50pct == exact.fraction_cpu_under_50pct
    assert profile.max_tasks == exact.max_tasks
    assert profile.span_seconds == exact.span_seconds
    # Sums in another order (Welford means, stream order vs. submit order)
    # agree to rounding.
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
    runtimes = [spec.execution_time for spec in specs]
    assert profile.median_runtime_seconds == pytest.approx(
        _nearest_rank(runtimes, 0.5), rel=QUANTILE_REL
    )
    assert profile.p95_runtime_seconds == pytest.approx(
        _nearest_rank(runtimes, 0.95), rel=QUANTILE_REL
    )
    # The width histogram is exact.
    assert histogram == reference.size_histogram(workload)


@st.composite
def _spec_lists(draw):
    count = draw(st.integers(1, 40))
    return [
        JobSpec(
            job_id,
            # Arbitrary order: archive traces are submit-ordered only by
            # convention.
            draw(st.floats(0.0, 1e6, allow_nan=False)),
            draw(st.integers(1, 64)),
            draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])),
            draw(st.floats(0.05, 1.0)),
            draw(st.floats(1.0, 1e6)),
        )
        for job_id in range(count)
    ]


class TestCharacterizeStream:
    """The single-pass profile must agree with the materialized oracle."""

    def test_matches_materialized_characterize(self):
        workload = LublinWorkloadGenerator(CLUSTER).generate(300, seed=11)
        _assert_matches_reference(workload.jobs)

    @given(_spec_lists())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_drawn_streams(self, specs):
        _assert_matches_reference(specs)

    def test_is_single_pass(self):
        workload = LublinWorkloadGenerator(CLUSTER).generate(300, seed=11)
        profile, _ = characterize_stream(iter(workload.jobs), CLUSTER)
        assert profile.num_jobs == workload.num_jobs

    def test_empty_stream_rejected(self):
        with pytest.raises(WorkloadError, match="empty"):
            characterize_stream(iter(()), CLUSTER, name="nothing")

    def test_single_job_stream(self):
        profile, histogram = characterize_stream(
            iter([_spec(0, tasks=4, runtime=50.0)]), CLUSTER
        )
        assert profile.num_jobs == 1
        assert profile.mean_interarrival_seconds == 0.0
        assert profile.median_runtime_seconds == 50.0
        assert histogram == [("4-7", 1)]

    def test_out_of_order_stream_matches_sorted_semantics(self):
        # Archive traces are submit-ordered only by convention; a stray
        # out-of-order record must not corrupt span/load/inter-arrival.
        specs = [
            _spec(0, submit=0.0),
            _spec(1, submit=1000.0),
            _spec(2, submit=2000.0),
            _spec(3, submit=500.0),
        ]
        exact = reference.characterize(_workload(list(specs)))
        profile = _profile(specs)
        assert profile.span_seconds == exact.span_seconds == 2000.0
        assert profile.offered_load == pytest.approx(exact.offered_load, rel=1e-12)
        assert profile.mean_interarrival_seconds == pytest.approx(
            exact.mean_interarrival_seconds, rel=1e-12
        )
