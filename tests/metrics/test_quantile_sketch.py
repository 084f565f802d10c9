"""Property-style accuracy tests for the quantile sketch.

The sketch documents a hard guarantee: for any stream and any ``q``,
``quantile(q)`` is within ``relative_error`` (relatively) of the exact
nearest-rank quantile ``x_(max(1, ceil(q·n)))``.  These tests assert that
bound on adversarial distributions — heavy-tail Downey-style runtimes,
constants, single elements, mixed signs — and the exact-merge property the
streaming campaign executor relies on.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError, ReproError
from repro.metrics import QuantileSketch, accumulator_from_dict
from repro.traces import DowneyTraceSource

QUANTILES = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0)


def exact_nearest_rank(values, q: float) -> float:
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, int(math.ceil(q * ordered.size - 1e-9)))
    return float(ordered[rank - 1])


def assert_within_bound(sketch: QuantileSketch, values, quantiles=QUANTILES):
    for q in quantiles:
        exact = exact_nearest_rank(values, q)
        estimate = sketch.quantile(q)
        tolerance = sketch.relative_error * abs(exact) + 1e-12
        assert abs(estimate - exact) <= tolerance, (
            f"q={q}: estimate {estimate} vs exact {exact} "
            f"(alpha={sketch.relative_error})"
        )


def sketch_of(values, relative_error: float = 0.01) -> QuantileSketch:
    sketch = QuantileSketch(relative_error=relative_error)
    sketch.update(values)
    return sketch


class TestErrorBound:
    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001])
    def test_heavy_tail_lognormal(self, alpha):
        values = np.random.default_rng(0).lognormal(mean=4.0, sigma=2.5, size=20000)
        assert_within_bound(sketch_of(values, alpha), values)

    def test_downey_runtimes(self):
        # The adversary from the paper's own workload family: log-uniform
        # runtimes spanning several decades.
        cluster = Cluster(64, 4, 8.0)
        source = DowneyTraceSource(num_jobs=5000, seed=13)
        runtimes = [spec.execution_time for spec in source.jobs(cluster)]
        assert_within_bound(sketch_of(runtimes), runtimes)

    def test_pareto_tail(self):
        values = (np.random.default_rng(5).pareto(a=1.1, size=30000) + 1.0) * 3.0
        assert_within_bound(sketch_of(values), values)

    def test_constant_stream(self):
        values = [42.0] * 1000
        sketch = sketch_of(values)
        assert_within_bound(sketch, values)
        # Clamping into [min, max] makes constants exact at the extremes.
        assert sketch.quantile(0.0) == 42.0
        assert sketch.quantile(1.0) == 42.0

    def test_single_element_stream(self):
        sketch = sketch_of([7.5])
        for q in QUANTILES:
            assert sketch.quantile(q) == 7.5

    def test_zeros_are_exact(self):
        values = [0.0] * 50 + [10.0] * 50
        sketch = sketch_of(values)
        assert sketch.quantile(0.25) == 0.0
        assert_within_bound(sketch, values)

    def test_mixed_signs(self):
        rng = np.random.default_rng(9)
        values = np.concatenate(
            [-rng.lognormal(2.0, 1.5, 5000), [0.0] * 37, rng.lognormal(2.0, 1.5, 5000)]
        )
        assert_within_bound(sketch_of(values), values)

    def test_extreme_quantiles_exact(self):
        values = np.random.default_rng(3).lognormal(1.0, 2.0, 5000)
        sketch = sketch_of(values)
        assert sketch.quantile(0.0) == float(values.min())
        assert sketch.quantile(1.0) == float(values.max())

    def test_wide_dynamic_range_stays_small(self):
        # Six decades at 1 % accuracy: memory must stay in the hundreds of
        # buckets, not O(n).
        values = np.geomspace(1e-2, 1e4, 100000)
        sketch = sketch_of(values)
        assert len(sketch.buckets) < 1500
        assert_within_bound(sketch, values, quantiles=(0.01, 0.5, 0.99))


class TestMerge:
    def test_merge_equals_single_pass_exactly(self):
        values = np.random.default_rng(2).lognormal(3.0, 2.0, 9000)
        whole = sketch_of(values)
        parts = [sketch_of(values[:3000]), sketch_of(values[3000:5500]), sketch_of(values[5500:])]
        merged = parts[0].merge(parts[1]).merge(parts[2])
        assert merged.to_dict() == whole.to_dict()

    def test_merge_preserves_bound(self):
        rng = np.random.default_rng(8)
        chunks = [rng.lognormal(1.0 + shift, 1.0, 4000) for shift in range(3)]
        merged = sketch_of(chunks[0])
        for chunk in chunks[1:]:
            merged.merge(sketch_of(chunk))
        assert_within_bound(merged, np.concatenate(chunks))

    def test_accuracy_mismatch_rejected(self):
        with pytest.raises(ReproError, match="accuracies"):
            QuantileSketch(relative_error=0.01).merge(QuantileSketch(relative_error=0.05))


class TestValidationAndSerialisation:
    def test_empty_sketch_has_no_quantiles(self):
        with pytest.raises(ReproError, match="empty"):
            QuantileSketch().quantile(0.5)

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigurationError):
                QuantileSketch(relative_error=alpha)

    def test_non_finite_values_rejected(self):
        sketch = QuantileSketch()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ReproError):
                sketch.add(bad)

    def test_out_of_range_query_rejected(self):
        sketch = sketch_of([1.0, 2.0])
        with pytest.raises(ReproError):
            sketch.quantile(1.5)
        with pytest.raises(ReproError):
            sketch.percentile(-1.0)

    def test_round_trip_preserves_quantiles(self):
        values = np.random.default_rng(4).lognormal(2.0, 2.0, 3000)
        sketch = sketch_of(values)
        restored = accumulator_from_dict(json.loads(json.dumps(sketch.to_dict())))
        for q in QUANTILES:
            assert restored.quantile(q) == sketch.quantile(q)

    def test_percentile_is_quantile(self):
        values = np.random.default_rng(6).lognormal(1.0, 1.0, 500)
        sketch = sketch_of(values)
        assert sketch.percentile(95) == sketch.quantile(0.95)

    def test_summary_keys(self):
        summary = sketch_of([1.0, 2.0, 3.0]).summary()
        assert set(summary) == {"count", "p50", "p90", "p99", "min", "max"}
        assert QuantileSketch().summary() == {"count": 0.0}


class TestZeroHeavyStreams:
    """Regression pin for the serve bench's queue-latency quantiles.

    A serve replay's report shows ``p50 = p90 = 0.0`` with a non-zero
    mean — suspicious at first sight, but correct: most jobs in a
    sub-critical replay are placed at their submit instant and record a
    queue latency of exactly ``0.0``.  These tests pin the sketch's exact
    zero accounting so a zero-handling regression cannot masquerade as a
    scheduling improvement (or vice versa).
    """

    def test_zero_majority_pins_low_quantiles_to_zero(self):
        # 91% zeros: every quantile at or below 0.91 must be exactly 0.0,
        # while p99 must reach into the nonzero tail.
        values = [0.0] * 910 + [float(i) for i in range(1, 91)]
        sketch = sketch_of(values)
        assert sketch.quantile(0.50) == 0.0
        assert sketch.quantile(0.90) == 0.0
        assert sketch.quantile(0.99) > 0.0

    def test_zero_minority_does_not_zero_the_median(self):
        values = [0.0] * 40 + [10.0] * 60
        sketch = sketch_of(values)
        assert sketch.quantile(0.50) == 10.0
        assert sketch.quantile(0.40) == 0.0

    def test_zeros_survive_merge_exactly(self):
        left = sketch_of([0.0] * 500)
        right = sketch_of([5.0] * 100)
        left.merge(right)
        assert left.count == 600
        assert left.quantile(0.50) == 0.0
        assert left.quantile(0.99) == 5.0

    def test_all_zero_stream(self):
        sketch = sketch_of([0.0] * 100)
        for q in QUANTILES:
            assert sketch.quantile(q) == 0.0
        assert sketch.summary()["max"] == 0.0

    def test_zeros_rank_between_negatives_and_positives(self):
        sketch = sketch_of([-2.0] * 10 + [0.0] * 10 + [3.0] * 10)
        # Nonzero values are bucketed (relative error); zeros are exact.
        assert sketch.quantile(0.2) == pytest.approx(-2.0, rel=0.01)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.9) == pytest.approx(3.0, rel=0.01)
