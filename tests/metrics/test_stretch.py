"""Unit tests for :mod:`repro.metrics.stretch`."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    STRETCH_BOUND_SECONDS,
    DegradationStats,
    aggregate_degradation,
    bounded_stretch,
    degradation_factors,
)


class TestStretch:
    def test_bounded_stretch_equals_raw_for_long_jobs(self):
        assert bounded_stretch(7200.0, 3600.0) == pytest.approx(2.0)

    def test_bounded_stretch_caps_short_jobs(self):
        # A 1-second job that waits 15 seconds has raw stretch 16 but bounded
        # stretch 1 (both times are below the 30-second threshold).
        assert bounded_stretch(16.0, 1.0) == pytest.approx(1.0)

    def test_bounded_stretch_mixed_regime(self):
        # 1-second job with a 300-second turnaround: numerator unbounded,
        # denominator bounded at 30.
        assert bounded_stretch(300.0, 1.0) == pytest.approx(10.0)

    def test_bounded_stretch_custom_bound(self):
        assert bounded_stretch(50.0, 10.0, bound=100.0) == pytest.approx(1.0)

    @given(
        turnaround=st.floats(min_value=0.0, max_value=1e7),
        dedicated=st.floats(min_value=1e-3, max_value=1e7),
    )
    def test_bounded_stretch_properties(self, turnaround, dedicated):
        value = bounded_stretch(turnaround, dedicated)
        assert value > 0.0
        # Bounded stretch is at least 1 whenever the turnaround is at least
        # the dedicated time (a job cannot finish faster than dedicated).
        if turnaround >= dedicated:
            assert value >= 1.0 - 1e-12
        # It never exceeds the raw stretch computed with the same bound logic.
        assert value <= max(turnaround, STRETCH_BOUND_SECONDS) / min(
            dedicated, max(dedicated, STRETCH_BOUND_SECONDS)
        ) + 1e-9


class TestDegradation:
    def test_best_algorithm_gets_one(self):
        factors = degradation_factors({"a": 10.0, "b": 5.0, "c": 50.0})
        assert factors["b"] == pytest.approx(1.0)
        assert factors["a"] == pytest.approx(2.0)
        assert factors["c"] == pytest.approx(10.0)

    def test_empty_input(self):
        assert degradation_factors({}) == {}

    def test_non_positive_stretch_rejected(self):
        with pytest.raises(ValueError):
            degradation_factors({"a": 0.0})

    def test_aggregate(self):
        stats = aggregate_degradation([1.0, 2.0, 3.0])
        assert stats.average == pytest.approx(2.0)
        assert stats.maximum == pytest.approx(3.0)
        assert stats.count == 3
        assert stats.as_row() == [stats.average, stats.std, stats.maximum]

    def test_aggregate_empty(self):
        stats = aggregate_degradation([])
        assert stats.count == 0
        assert stats.average == 0.0

    @given(st.dictionaries(st.text(min_size=1, max_size=5),
                           st.floats(min_value=1e-3, max_value=1e6),
                           min_size=1, max_size=8))
    def test_degradation_factor_properties(self, stretches):
        factors = degradation_factors(stretches)
        assert min(factors.values()) == pytest.approx(1.0)
        for name in stretches:
            assert factors[name] >= 1.0 - 1e-9


class TestBoundedStretchValidation:
    @pytest.mark.parametrize(
        "turnaround, dedicated, bound",
        [
            (-1.0, 100.0, STRETCH_BOUND_SECONDS),
            (100.0, 0.0, STRETCH_BOUND_SECONDS),
            (100.0, -5.0, STRETCH_BOUND_SECONDS),
            (100.0, 100.0, 0.0),
            (100.0, 100.0, -30.0),
        ],
        ids=[
            "negative-turnaround",
            "zero-dedicated",
            "negative-dedicated",
            "zero-bound",
            "negative-bound",
        ],
    )
    def test_invalid_inputs_rejected(self, turnaround, dedicated, bound):
        with pytest.raises(ValueError):
            bounded_stretch(turnaround, dedicated, bound=bound)

    def test_zero_turnaround_is_accepted(self):
        # A job that ends the instant it is submitted is bounded to 1.
        assert bounded_stretch(0.0, 10.0) == pytest.approx(1.0)

    def test_default_bound_is_thirty_seconds(self):
        assert STRETCH_BOUND_SECONDS == 30.0
        assert bounded_stretch(90.0, 10.0) == bounded_stretch(
            90.0, 10.0, bound=STRETCH_BOUND_SECONDS
        )

    @pytest.mark.parametrize(
        "turnaround, dedicated, expected",
        [
            (30.0, 30.0, 1.0),
            (60.0, 15.0, 2.0),
            (29.0, 29.0, 1.0),
            (45.0, 30.0, 1.5),
            (3600.0, 40.0, 90.0),
        ],
    )
    def test_values_at_and_around_the_bound(self, turnaround, dedicated, expected):
        assert bounded_stretch(turnaround, dedicated) == pytest.approx(expected)

    @given(
        turnaround=st.floats(min_value=0.0, max_value=1e6),
        extra=st.floats(min_value=0.0, max_value=1e6),
        dedicated=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_non_decreasing_in_turnaround(self, turnaround, extra, dedicated):
        assert bounded_stretch(turnaround + extra, dedicated) >= bounded_stretch(
            turnaround, dedicated
        )

    @given(
        turnaround=st.floats(min_value=0.0, max_value=1e6),
        dedicated=st.floats(min_value=1e-3, max_value=1e6),
        extra=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_non_increasing_in_dedicated_time(self, turnaround, dedicated, extra):
        assert bounded_stretch(turnaround, dedicated + extra) <= bounded_stretch(
            turnaround, dedicated
        )

    @given(
        turnaround=st.floats(min_value=0.0, max_value=1e6),
        dedicated=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_equals_raw_stretch_above_the_bound(self, turnaround, dedicated):
        long_turnaround = turnaround + STRETCH_BOUND_SECONDS
        long_dedicated = dedicated + STRETCH_BOUND_SECONDS
        assert bounded_stretch(long_turnaround, long_dedicated) == pytest.approx(
            long_turnaround / long_dedicated
        )


class TestDegradationFactorCases:
    def test_ties_for_best_all_get_one(self):
        factors = degradation_factors({"a": 4.0, "b": 4.0, "c": 8.0})
        assert factors == {"a": 1.0, "b": 1.0, "c": 2.0}

    def test_single_algorithm_gets_one(self):
        assert degradation_factors({"only": 123.0}) == {"only": 1.0}

    def test_negative_stretch_rejected(self):
        with pytest.raises(ValueError, match="b"):
            degradation_factors({"a": 2.0, "b": -1.0})

    def test_keys_keep_input_order(self):
        stretches = {"z": 3.0, "a": 1.0, "m": 2.0}
        assert list(degradation_factors(stretches)) == ["z", "a", "m"]

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=5),
            st.floats(min_value=1e-3, max_value=1e6),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariant(self, stretches, factor):
        scaled = {name: value * factor for name, value in stretches.items()}
        expected = degradation_factors(stretches)
        for name, value in degradation_factors(scaled).items():
            assert value == pytest.approx(expected[name], rel=1e-9)


class TestAggregateDegradationCases:
    def test_std_is_population_std(self):
        # ddof=0: the spread of [1, 3] about its mean 2 is exactly 1.
        stats = aggregate_degradation([1.0, 3.0])
        assert stats.std == pytest.approx(1.0)

    def test_single_value(self):
        stats = aggregate_degradation([1.7])
        assert stats == DegradationStats(average=1.7, std=0.0, maximum=1.7, count=1)

    def test_accepts_any_sequence(self):
        stats = aggregate_degradation((1.0, 1.5, 4.0))
        assert stats.count == 3
        assert stats.maximum == pytest.approx(4.0)
        assert isinstance(stats.average, float)

    @pytest.mark.parametrize("values", [[], [1.7], [1.0, 3.0], [1.0, 1.5, 4.0]])
    def test_accepts_a_numpy_array(self, values):
        """An array's truth value is ambiguous from two elements on: the
        empty test must read the length, and the stats match the list's."""
        assert aggregate_degradation(np.array(values)) == aggregate_degradation(values)

    def test_stats_are_frozen(self):
        stats = aggregate_degradation([1.0, 2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.average = 0.0  # type: ignore[misc]

    def test_row_leaves_out_the_count(self):
        assert aggregate_degradation([2.0, 2.0]).as_row() == [2.0, 0.0, 2.0]

    @given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=30))
    def test_average_between_one_and_maximum(self, values):
        stats = aggregate_degradation(values)
        assert 1.0 - 1e-9 <= stats.average <= stats.maximum + 1e-9
        assert stats.std >= 0.0
        assert stats.count == len(values)
