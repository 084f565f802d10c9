"""Tests for the fairness metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    gini_coefficient,
    jain_index,
    stretch_fairness,
)
from repro.analysis.fairness import (
    gini_from_masses,
    jain_index_from_moments,
    streaming_stretch_fairness,
)
from repro.core import Cluster, JobSpec, SimulationConfig, Simulator
from repro.exceptions import ReproError
from repro.metrics import JobMetricsAccumulator, Moments
from repro.schedulers import create_scheduler

positive_samples = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
    min_size=2,
    max_size=40,
)


class TestJainIndex:
    def test_equal_values_give_one(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_dominant_value_approaches_one_over_n(self):
        values = [100.0] + [0.0] * 9
        assert jain_index(values) == pytest.approx(0.1)

    def test_known_value(self):
        # (1+3)^2 / (2 * (1+9)) = 16/20
        assert jain_index([1.0, 3.0]) == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            jain_index([])

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            jain_index([1.0, -1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ReproError):
            jain_index([0.0, 0.0])

    @given(positive_samples)
    @settings(max_examples=60, deadline=None)
    def test_bounded_between_one_over_n_and_one(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    @given(positive_samples, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariant(self, values, factor):
        scaled = [value * factor for value in values]
        assert jain_index(scaled) == pytest.approx(jain_index(values), rel=1e-9)


class TestGiniCoefficient:
    def test_equal_values_give_zero(self):
        assert gini_coefficient([5.0, 5.0, 5.0]) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        # For [0, 1], Gini = 0.5.
        assert gini_coefficient([0.0, 1.0]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            gini_coefficient([])

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            gini_coefficient([-1.0, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ReproError):
            gini_coefficient([0.0])

    @given(positive_samples)
    @settings(max_examples=60, deadline=None)
    def test_bounded_in_unit_interval(self, values):
        coefficient = gini_coefficient(values)
        assert -1e-9 <= coefficient < 1.0

    @given(positive_samples, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariant(self, values, factor):
        scaled = [value * factor for value in values]
        assert gini_coefficient(scaled) == pytest.approx(
            gini_coefficient(values), abs=1e-9
        )


def _run(num_jobs=5):
    cluster = Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0)
    specs = [JobSpec(i, i * 10.0, 1, 0.5, 0.2, 100.0 + 5 * i) for i in range(num_jobs)]
    return Simulator(cluster, create_scheduler("greedy-pmtn"), SimulationConfig()).run(specs)


class TestStretchFairness:
    def test_report_fields_consistent_with_result(self):
        result = _run()
        report = stretch_fairness(result)
        assert report.algorithm == result.algorithm
        assert report.num_jobs == result.num_jobs
        assert report.max_stretch == pytest.approx(result.max_stretch)
        assert report.mean_stretch == pytest.approx(result.mean_stretch)

    def test_jain_and_gini_within_bounds(self):
        result = _run(num_jobs=8)
        report = stretch_fairness(result)
        assert 0.0 < report.jain_stretch <= 1.0
        assert 0.0 <= report.gini_stretch < 1.0

    def test_p95_between_mean_and_max(self):
        result = _run(num_jobs=10)
        report = stretch_fairness(result)
        assert report.p95_stretch <= report.max_stretch + 1e-9

    def test_as_dict_contains_all_fields(self):
        result = _run()
        data = stretch_fairness(result).as_dict()
        for key in ("max_stretch", "mean_stretch", "jain_stretch", "gini_stretch"):
            assert key in data


class TestKnownValuesAndSymmetry:
    def test_jain_of_one_to_four(self):
        # (1+2+3+4)^2 / (4 * (1+4+9+16)) = 100/120
        assert jain_index([1.0, 2.0, 3.0, 4.0]) == pytest.approx(100.0 / 120.0)

    def test_gini_of_one_to_four(self):
        # Mean absolute difference 1.25 over twice the mean 2.5.
        assert gini_coefficient([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.25)

    def test_single_value_is_perfectly_fair(self):
        assert jain_index([7.0]) == pytest.approx(1.0)
        assert gini_coefficient([7.0]) == pytest.approx(0.0, abs=1e-12)

    @given(positive_samples, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_order_does_not_matter(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert jain_index(shuffled) == pytest.approx(jain_index(values), rel=1e-9)
        assert gini_coefficient(shuffled) == pytest.approx(
            gini_coefficient(values), abs=1e-9
        )


class TestStreamingForms:
    @given(positive_samples)
    @settings(max_examples=40, deadline=None)
    def test_gini_from_masses_matches_expanded_sample(self, values):
        # Round to give repeated values, so masses carry counts above one.
        rounded = [float(round(value)) + 1.0 for value in values]
        masses = [(value, rounded.count(value)) for value in sorted(set(rounded))]
        assert gini_from_masses(masses) == pytest.approx(
            gini_coefficient(rounded), abs=1e-9
        )

    @given(positive_samples)
    @settings(max_examples=40, deadline=None)
    def test_jain_from_moments_matches_sample(self, values):
        moments = Moments()
        for value in values:
            moments.add(value)
        assert jain_index_from_moments(moments) == pytest.approx(
            jain_index(values), rel=1e-9
        )

    def test_zero_count_masses_are_ignored(self):
        assert gini_from_masses([(1.0, 1), (2.0, 0), (3.0, 1)]) == pytest.approx(
            gini_coefficient([1.0, 3.0])
        )

    def test_only_zero_counts_rejected(self):
        with pytest.raises(ReproError):
            gini_from_masses([(1.0, 0), (2.0, 0)])

    @pytest.mark.parametrize(
        "values",
        [[], [-1.0, 2.0], [0.0, 0.0]],
        ids=["empty", "negative", "all-zero"],
    )
    def test_moments_form_rejects_what_the_sample_form_rejects(self, values):
        moments = Moments()
        for value in values:
            moments.add(value)
        with pytest.raises(ReproError):
            jain_index_from_moments(moments)
        with pytest.raises(ReproError):
            jain_index(values)


class TestReportEdges:
    def test_as_dict_reports_job_count_as_float(self):
        data = stretch_fairness(_run(num_jobs=3)).as_dict()
        assert data["num_jobs"] == 3.0
        assert isinstance(data["num_jobs"], float)

    def test_streaming_form_rejects_a_run_without_jobs(self):
        with pytest.raises(ReproError):
            streaming_stretch_fairness(JobMetricsAccumulator())
