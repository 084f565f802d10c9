"""Tests for the composite job-metrics accumulator and bundle helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.metrics import (
    DEFAULT_RELATIVE_ERROR,
    JobMetricsAccumulator,
    Moments,
    SumAccumulator,
    accumulator_from_dict,
    bundle_from_dict,
    bundle_to_dict,
    merge_bundles,
)


def _observe_range(accumulator: JobMetricsAccumulator, start: int, stop: int) -> None:
    for job_id in range(start, stop):
        accumulator.observe(
            job_id=job_id,
            stretch=float(job_id % 13 + 1),
            turnaround=float(job_id * 2 + 10),
            wait=float(job_id % 5),
        )


class TestJobMetricsAccumulator:
    def test_exact_headline_statistics(self):
        accumulator = JobMetricsAccumulator()
        _observe_range(accumulator, 0, 200)
        stretches = np.array([job_id % 13 + 1 for job_id in range(200)], dtype=float)
        summary = accumulator.summary()
        assert summary["num_jobs"] == 200
        assert summary["max_stretch"] == stretches.max()
        assert summary["mean_stretch"] == pytest.approx(stretches.mean(), rel=1e-12)
        assert accumulator.stretch.minimum == stretches.min()

    def test_quantiles_within_bound(self):
        accumulator = JobMetricsAccumulator()
        _observe_range(accumulator, 0, 500)
        stretches = np.sort([job_id % 13 + 1 for job_id in range(500)])
        import math
        for q in (0.5, 0.9, 0.99):
            exact = stretches[max(1, math.ceil(q * 500 - 1e-9)) - 1]
            bound = DEFAULT_RELATIVE_ERROR * exact
            assert abs(accumulator.stretch_quantile(q) - exact) <= bound

    def test_worst_jobs_tracked_by_id(self):
        accumulator = JobMetricsAccumulator()
        _observe_range(accumulator, 0, 50)
        worst = accumulator.worst_stretch.items()
        assert worst[0][0] == 13.0  # job_id % 13 + 1 peaks at 13
        assert all(job_id % 13 == 12 for _, job_id in worst[:3])

    def test_merge_equals_single_stream(self):
        single = JobMetricsAccumulator()
        _observe_range(single, 0, 300)
        first, second = JobMetricsAccumulator(), JobMetricsAccumulator()
        _observe_range(first, 0, 120)
        _observe_range(second, 120, 300)
        merged = first.merge(second)
        assert merged.count == single.count
        assert merged.stretch.maximum == single.stretch.maximum
        assert merged.stretch_sketch.to_dict() == single.stretch_sketch.to_dict()
        assert merged.worst_stretch.to_dict() == single.worst_stretch.to_dict()

    def test_registry_round_trip(self):
        accumulator = JobMetricsAccumulator()
        _observe_range(accumulator, 0, 40)
        payload = json.loads(json.dumps(accumulator.to_dict()))
        restored = accumulator_from_dict(payload)
        assert isinstance(restored, JobMetricsAccumulator)
        assert restored.to_dict() == accumulator.to_dict()
        assert restored.summary() == accumulator.summary()

    def test_loads_payloads_written_with_the_exemplar_reservoir(self):
        # Payloads from before the reservoir was deleted carry two more keys;
        # they load, and everything else round-trips unchanged.
        accumulator = JobMetricsAccumulator()
        _observe_range(accumulator, 0, 40)
        legacy = dict(
            accumulator.to_dict(),
            relative_error=0.01,
            exemplars={
                "type": "reservoir", "k": 32, "seed": 2010, "n": 1,
                "items": [[7, {"job_id": 7, "stretch": 8.0, "turnaround": 24.0}]],
            },
        )
        restored = accumulator_from_dict(json.loads(json.dumps(legacy)))
        assert restored.to_dict() == accumulator.to_dict()
        assert sorted(accumulator.to_dict()) == [
            "stretch", "stretch_sketch", "turnaround", "turnaround_sketch",
            "type", "wait", "worst_stretch",
        ]

    def test_direct_add_rejected(self):
        with pytest.raises(ReproError, match="observe"):
            JobMetricsAccumulator().add(1.0)

    def test_empty_summary(self):
        assert JobMetricsAccumulator().summary() == {"num_jobs": 0.0}


class TestBundles:
    def _bundle(self, values):
        moments = Moments()
        total = SumAccumulator()
        for value in values:
            moments.add(value)
            total.add(value)
        return {"moments": moments, "total": total}

    def test_round_trip(self):
        bundle = self._bundle([1.0, 2.0, 3.0])
        restored = bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle))))
        assert set(restored) == {"moments", "total"}
        assert restored["total"].to_dict() == bundle["total"].to_dict()

    def test_merge_name_wise(self):
        merged = merge_bundles([self._bundle([1.0, 2.0]), self._bundle([3.0])])
        assert merged["total"].total == 6.0
        assert merged["moments"].count == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError, match="different accumulator sets"):
            merge_bundles([self._bundle([1.0]), {"total": SumAccumulator()}])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            merge_bundles([])
