"""Tests for the step-series analysis primitives."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    StepSeries,
    busy_nodes_series,
    cpu_allocated_series,
)
from repro.core import (
    Cluster,
    JobSpec,
    SimulationConfig,
    Simulator,
    UtilizationRecorder,
)
from repro.exceptions import ReproError
from repro.schedulers import create_scheduler


class TestStepSeriesConstruction:
    def test_breakpoints_and_values_must_match_in_length(self):
        with pytest.raises(ReproError):
            StepSeries((0.0, 1.0), (1.0,), 2.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ReproError):
            StepSeries((), (), 0.0)

    def test_non_increasing_breakpoints_rejected(self):
        with pytest.raises(ReproError):
            StepSeries((0.0, 0.0), (1.0, 2.0), 1.0)

    def test_end_before_last_breakpoint_rejected(self):
        with pytest.raises(ReproError):
            StepSeries((0.0, 5.0), (1.0, 2.0), 4.0)

    def test_from_samples_merges_duplicate_times(self):
        series = StepSeries.from_samples([(0.0, 1.0), (0.0, 3.0), (2.0, 5.0)], end=4.0)
        assert series.times == (0.0, 2.0)
        assert series.values == (3.0, 5.0)

    def test_from_samples_merges_equal_consecutive_values(self):
        series = StepSeries.from_samples([(0.0, 1.0), (1.0, 1.0), (2.0, 2.0)], end=3.0)
        assert series.times == (0.0, 2.0)
        assert series.values == (1.0, 2.0)

    def test_from_samples_rejects_empty(self):
        with pytest.raises(ReproError):
            StepSeries.from_samples([])

    def test_from_samples_sorts_input(self):
        series = StepSeries.from_samples([(2.0, 5.0), (0.0, 1.0)], end=3.0)
        assert series.start == 0.0
        assert series.times == (0.0, 2.0)
        assert series.values == (1.0, 5.0)

    def test_from_samples_end_defaults_to_the_last_sample(self):
        series = StepSeries.from_samples([(0.0, 1.0), (5.0, 2.0)])
        assert series.end == 5.0
        assert series.duration == 5.0

    def test_from_samples_end_never_precedes_the_last_breakpoint(self):
        series = StepSeries.from_samples([(0.0, 1.0), (5.0, 2.0)], end=3.0)
        assert series.end == 5.0


class TestStepSeriesStatistics:
    def test_constant_series_mean_is_the_constant(self):
        series = StepSeries((0.0,), (3.5,), 10.0)
        assert series.mean() == pytest.approx(3.5)
        assert series.integral() == pytest.approx(35.0)

    def test_mean_on_a_subnormal_domain_stays_the_constant(self):
        # 1.5 * 5e-324 rounds to 1e-323, and 1e-323 / 5e-324 is 2.0.
        series = StepSeries((0.0,), (1.5,), 5e-324)
        assert series.integral() == 1e-323
        assert series.mean() == 1.5

    def test_two_segment_mean_is_time_weighted(self):
        # value 1 on [0, 2), value 3 on [2, 10] -> mean = (2*1 + 8*3) / 10
        series = StepSeries((0.0, 2.0), (1.0, 3.0), 10.0)
        assert series.mean() == pytest.approx(2.6)

    def test_max_and_min(self):
        series = StepSeries((0.0, 1.0, 2.0), (5.0, -1.0, 2.0), 3.0)
        assert series.max() == 5.0
        assert series.min() == -1.0

    def test_fraction_above(self):
        series = StepSeries((0.0, 4.0), (0.0, 2.0), 10.0)
        assert series.fraction_above(1.0) == pytest.approx(0.6)
        assert series.fraction_at_or_below(1.0) == pytest.approx(0.4)

    def test_zero_length_domain(self):
        point = StepSeries((3.0,), (4.0,), 3.0)
        assert point.mean() == 4.0
        assert point.integral() == 0.0
        assert point.fraction_above(0.0) == 0.0
        assert point.fraction_at_or_below(0.0) == 1.0


@st.composite
def step_series(draw):
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    times = sorted(times)
    values = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=len(times),
            max_size=len(times),
        )
    )
    tail = draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    return StepSeries(tuple(times), tuple(values), times[-1] + tail)


class TestStepSeriesProperties:
    @given(step_series())
    @example(StepSeries((0.0,), (1.5,), 5e-324))
    @settings(max_examples=60, deadline=None)
    def test_mean_between_min_and_max(self, series):
        assert series.min() - 1e-9 <= series.mean() <= series.max() + 1e-9

    @given(step_series())
    @settings(max_examples=60, deadline=None)
    def test_integral_consistent_with_mean(self, series):
        if series.duration > 0:
            assert series.integral() == pytest.approx(series.mean() * series.duration)

    @given(step_series(), st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_fraction_above_is_a_probability(self, series, threshold):
        fraction = series.fraction_above(threshold)
        assert 0.0 <= fraction <= 1.0

    @given(step_series())
    @settings(max_examples=60, deadline=None)
    def test_integral_is_the_sum_over_segments(self, series):
        bounds = series.times + (series.end,)
        expected = sum(
            value * (later - earlier)
            for value, earlier, later in zip(series.values, bounds, bounds[1:])
        )
        assert series.integral() == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestRecorderConversions:
    @pytest.fixture(scope="class")
    def recorder_and_cluster(self):
        cluster = Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0)
        recorder = UtilizationRecorder()
        specs = [
            JobSpec(i, i * 10.0, 2, 0.8, 0.3, 200.0 + 10 * i) for i in range(6)
        ]
        Simulator(
            cluster,
            create_scheduler("dynmcb8-per-600"),
            SimulationConfig(),
            observers=[recorder],
        ).run(specs)
        return recorder, cluster

    def test_busy_nodes_series_bounded_by_cluster(self, recorder_and_cluster):
        recorder, cluster = recorder_and_cluster
        series = busy_nodes_series(recorder)
        assert 0 <= series.min()
        assert series.max() <= cluster.num_nodes

    def test_cpu_allocated_series_bounded_by_cluster(self, recorder_and_cluster):
        recorder, cluster = recorder_and_cluster
        series = cpu_allocated_series(recorder)
        assert series.max() <= cluster.num_nodes + 1e-6

    def test_series_follow_the_recorded_samples(self, recorder_and_cluster):
        recorder, _ = recorder_and_cluster
        samples = recorder.samples
        end = samples[-1].time + 100.0
        for series, read in (
            (busy_nodes_series(recorder, end=end), lambda s: float(s.busy_nodes)),
            (cpu_allocated_series(recorder, end=end), lambda s: s.cpu_allocated),
        ):
            assert series.start == samples[0].time
            assert series.end == end
            # The last sample at each time is the state right after the event.
            latest = {sample.time: read(sample) for sample in samples}
            for time, value in zip(series.times, series.values):
                assert latest[time] == value

    def test_empty_recorder_rejected(self):
        with pytest.raises(ReproError):
            busy_nodes_series(UtilizationRecorder())
