"""Accumulator contract tests: merge associativity, round trips, exactness."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.metrics import (
    ExactDistribution,
    JobMetricsAccumulator,
    Moments,
    QuantileSketch,
    SumAccumulator,
    TimeWeightedValue,
    TopK,
    accumulator_from_dict,
    available_accumulators,
    merge_accumulators,
)


def _sample_values(seed: int = 0, size: int = 400) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=2.0, sigma=1.5, size=size)


def _fresh_accumulators():
    """One instance of every registered accumulator type (keyed intake aware)."""
    return {
        "moments": Moments(),
        "sum": SumAccumulator(),
        "exact": ExactDistribution(),
        "top-k": TopK(k=5),
        "quantile-sketch": QuantileSketch(relative_error=0.01),
        "time-weighted": TimeWeightedValue(),
        "job-metrics": JobMetricsAccumulator(),
    }


def _fill(accumulator, values, key_offset=0):
    for index, value in enumerate(values):
        if isinstance(accumulator, TopK):
            accumulator.add(float(value), key=key_offset + index)
        elif isinstance(accumulator, TimeWeightedValue):
            accumulator.add_segment(float(value), duration=10.0)
        elif isinstance(accumulator, JobMetricsAccumulator):
            accumulator.observe(
                job_id=key_offset + index,
                stretch=1.0 + float(value),
                turnaround=float(value),
                wait=float(value) / 2.0,
            )
        else:
            accumulator.add(float(value))
    return accumulator


def _close(value):
    """``value`` with every float wrapped in ``pytest.approx`` (nested)."""
    if isinstance(value, dict):
        return {key: _close(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_close(item) for item in value]
    if isinstance(value, float):
        return pytest.approx(value, rel=1e-9)
    return value


class TestRegistry:
    def test_every_standard_type_registered(self):
        names = available_accumulators()
        for kind in (
            "moments", "sum", "exact", "top-k", "quantile-sketch",
            "time-weighted", "job-metrics",
        ):
            assert kind in names

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown accumulator"):
            accumulator_from_dict({"type": "no-such-sketch"})

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError, match="'type'"):
            accumulator_from_dict({})


class TestRoundTrips:
    @pytest.mark.parametrize("kind", sorted(_fresh_accumulators()))
    def test_state_round_trip(self, kind):
        accumulator = _fill(_fresh_accumulators()[kind], _sample_values(3, 120))
        payload = accumulator.to_dict()
        # The canonical form must survive JSON (cache files, worker IPC).
        restored = accumulator_from_dict(json.loads(json.dumps(payload)))
        assert restored.to_dict() == payload
        assert restored.count == accumulator.count

    @pytest.mark.parametrize("kind", sorted(_fresh_accumulators()))
    def test_empty_round_trip(self, kind):
        accumulator = _fresh_accumulators()[kind]
        restored = accumulator_from_dict(json.loads(json.dumps(accumulator.to_dict())))
        assert restored.count == 0
        assert restored.to_dict() == accumulator.to_dict()


class TestMergeAssociativity:
    @pytest.mark.parametrize("kind", sorted(_fresh_accumulators()))
    def test_grouping_invariance(self, kind):
        values = _sample_values(7, 300)
        chunks = [values[:100], values[100:180], values[180:]]
        offsets = [0, 100, 180]
        parts = [
            _fill(_fresh_accumulators()[kind], chunk, key_offset=offset)
            for chunk, offset in zip(chunks, offsets)
        ]
        left = copy.deepcopy(parts[0]).merge(copy.deepcopy(parts[1]))
        left = left.merge(copy.deepcopy(parts[2]))
        right = copy.deepcopy(parts[1]).merge(copy.deepcopy(parts[2]))
        right = copy.deepcopy(parts[0]).merge(right)
        a, b = left.to_dict(), right.to_dict()
        if kind == "moments":
            # Chan's formula is associative up to floating-point rounding.
            assert a["n"] == b["n"] and a["min"] == b["min"] and a["max"] == b["max"]
            assert a["mean"] == pytest.approx(b["mean"], rel=1e-12)
            assert a["m2"] == pytest.approx(b["m2"], rel=1e-9)
        elif kind == "sum":
            # Float addition is associative up to rounding; integer tallies
            # (the production use) are exact — see the dedicated test below.
            assert a["n"] == b["n"]
            assert a["total"] == pytest.approx(b["total"], rel=1e-12)
        elif kind in ("time-weighted", "job-metrics"):
            # Float sums (and job-metrics' Welford moments) round; every
            # count, sketch bin and top-k entry merges exactly.
            assert a == _close(b)
        else:
            assert a == b

    @pytest.mark.parametrize("kind", ["top-k", "quantile-sketch"])
    def test_merged_partials_equal_single_pass(self, kind):
        values = _sample_values(11, 250)
        single = _fill(_fresh_accumulators()[kind], values)
        parts = [
            _fill(_fresh_accumulators()[kind], values[:90], key_offset=0),
            _fill(_fresh_accumulators()[kind], values[90:], key_offset=90),
        ]
        assert merge_accumulators(parts).to_dict() == single.to_dict()

    def test_sum_tallies_merge_exactly(self):
        # Integer tallies (the production use: cost counters, job counts)
        # merge without any floating-point drift.
        values = [float(v) for v in range(250)]
        single = _fill(SumAccumulator(), values)
        parts = [_fill(SumAccumulator(), values[:90]), _fill(SumAccumulator(), values[90:])]
        assert merge_accumulators(parts).to_dict() == single.to_dict()

    def test_type_mismatch_rejected(self):
        with pytest.raises(ReproError, match="cannot merge"):
            Moments().merge(SumAccumulator())

    def test_empty_sequence_rejected(self):
        with pytest.raises(ReproError):
            merge_accumulators([])


class TestMoments:
    def test_matches_numpy(self):
        values = _sample_values(1, 500)
        moments = _fill(Moments(), values)
        assert moments.count == 500
        assert moments.mean == pytest.approx(values.mean(), rel=1e-12)
        assert moments.std == pytest.approx(values.std(ddof=0), rel=1e-9)
        assert moments.minimum == values.min()
        assert moments.maximum == values.max()
        assert moments.total == pytest.approx(values.sum(), rel=1e-12)

    def test_single_element(self):
        moments = _fill(Moments(), [4.25])
        assert moments.count == 1
        assert moments.mean == 4.25
        assert moments.std == 0.0
        assert moments.minimum == moments.maximum == 4.25

    def test_merge_with_empty_is_identity(self):
        moments = _fill(Moments(), [1.0, 2.0, 3.0])
        before = moments.to_dict()
        assert moments.merge(Moments()).to_dict() == before
        empty = Moments()
        empty.merge(_fill(Moments(), [1.0, 2.0, 3.0]))
        assert empty.to_dict() == before


class TestExactDistribution:
    def test_byte_identical_to_numpy(self):
        values = list(_sample_values(2, 97))
        exact = ExactDistribution(values)
        array = np.asarray(values, dtype=float)
        assert exact.percentile(95) == float(np.percentile(array, 95))
        assert exact.quantile(0.5) == float(np.percentile(array, 50))

    def test_empty_percentile_rejected(self):
        with pytest.raises(ReproError):
            ExactDistribution().percentile(50)


class TestTopK:
    def test_keeps_largest_with_deterministic_ties(self):
        tracker = TopK(k=3)
        for key, value in enumerate([5.0, 1.0, 9.0, 9.0, 2.0]):
            tracker.add(value, key=key)
        assert tracker.items() == [(9.0, 2), (9.0, 3), (5.0, 0)]
        assert tracker.count == 5

    def test_numeric_keys_tie_break_numerically(self):
        # '10' < '9' lexicographically; the documented order is numeric.
        tracker = TopK(k=2)
        tracker.add(9.0, key=10)
        tracker.add(9.0, key=9)
        assert tracker.items() == [(9.0, 9), (9.0, 10)]

    def test_k_mismatch_rejected(self):
        with pytest.raises(ReproError):
            TopK(k=2).merge(TopK(k=3))
