"""Tests for composable trace transforms, including the property-style
arrival-order and determinism guarantees every transform must uphold."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError, WorkloadError
from repro.traces import (
    BootstrapResample,
    DowneyTraceSource,
    FilterJobs,
    Head,
    LublinTraceSource,
    Perturb,
    PredicateFilter,
    RescaleLoad,
    ScaleInterarrival,
    TimeWindow,
    TransformedSource,
    available_transforms,
    offered_load,
    trace_source_from_dict,
    transform_from_dict,
)

CLUSTER = Cluster(32, 4, 8.0)
BASE = LublinTraceSource(num_jobs=120, seed=17)


def _apply(transform, source=BASE, cluster=CLUSTER):
    return list(transform.apply(source.jobs(cluster), cluster))


# Every spec-expressible transform, each with non-trivial options.
ALL_TRANSFORMS = [
    TimeWindow(start=1000.0, end=500000.0),
    ScaleInterarrival(factor=2.5),
    RescaleLoad(target_load=0.5),
    Perturb(runtime_factor=0.2, width_factor=0.1, seed=9),
    FilterJobs(max_tasks=8, min_runtime_seconds=10.0),
    Head(count=50),
    BootstrapResample(num_jobs=80, seed=9),
]


@pytest.mark.parametrize("transform", ALL_TRANSFORMS, ids=lambda t: t.kind)
class TestTransformProperties:
    def test_preserves_arrival_order(self, transform):
        specs = _apply(transform)
        assert specs, "transform produced an empty stream"
        assert all(
            specs[i].submit_time <= specs[i + 1].submit_time
            for i in range(len(specs) - 1)
        )

    def test_deterministic_under_fixed_seed(self, transform):
        assert _apply(transform) == _apply(transform)

    def test_round_trip_spec(self, transform):
        rebuilt = transform_from_dict(transform.to_dict())
        assert rebuilt == transform
        assert _apply(rebuilt) == _apply(transform)

    def test_job_ids_stay_unique(self, transform):
        specs = _apply(transform)
        ids = [spec.job_id for spec in specs]
        assert len(ids) == len(set(ids))


class TestTimeWindow:
    def test_slices_and_rebases(self):
        specs = _apply(TimeWindow(start=10000.0, end=200000.0))
        original = list(BASE.jobs(CLUSTER))
        expected = [
            spec for spec in original if 10000.0 <= spec.submit_time < 200000.0
        ]
        assert len(specs) == len(expected)
        assert specs[0].submit_time == pytest.approx(
            expected[0].submit_time - 10000.0
        )

    def test_without_rebase_keeps_times(self):
        specs = _apply(TimeWindow(start=10000.0, rebase=False))
        assert specs[0].submit_time >= 10000.0

    def test_stops_reading_after_window(self):
        # The windowed stream must not consume the (infinite-ish) tail.
        def endless(cluster):
            from repro.core.job import JobSpec

            job_id = 0
            while True:
                yield JobSpec(job_id, float(job_id), 1, 0.5, 0.1, 100.0)
                job_id += 1

        from repro.traces import CallableTraceSource

        source = CallableTraceSource(factory=endless, key="endless")
        window = TimeWindow(start=0.0, end=50.0)
        specs = list(window.apply(source.jobs(CLUSTER), CLUSTER))
        assert len(specs) == 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimeWindow(start=-1.0)
        with pytest.raises(ConfigurationError):
            TimeWindow(start=10.0, end=5.0)


class TestScaleAndRescale:
    def test_scale_interarrival_stretches_span(self):
        original = list(BASE.jobs(CLUSTER))
        scaled = _apply(ScaleInterarrival(factor=2.0))
        original_span = original[-1].submit_time - original[0].submit_time
        scaled_span = scaled[-1].submit_time - scaled[0].submit_time
        assert scaled_span == pytest.approx(2.0 * original_span)

    def test_rescale_load_hits_target(self):
        specs = _apply(RescaleLoad(target_load=0.4))
        assert offered_load(specs, CLUSTER) == pytest.approx(0.4)

    def test_rescale_needs_two_jobs(self):
        source = LublinTraceSource(num_jobs=1, seed=1)
        with pytest.raises(WorkloadError):
            list(RescaleLoad(target_load=0.5).apply(source.jobs(CLUSTER), CLUSTER))


class TestPerturb:
    def test_changes_runtimes_not_submits(self):
        original = list(BASE.jobs(CLUSTER))
        perturbed = _apply(Perturb(runtime_factor=0.3, seed=5))
        assert [s.submit_time for s in perturbed] == [
            s.submit_time for s in original
        ]
        assert [s.execution_time for s in perturbed] != [
            s.execution_time for s in original
        ]

    def test_width_stays_in_cluster(self):
        perturbed = _apply(Perturb(width_factor=1.0, seed=5))
        assert all(1 <= s.num_tasks <= CLUSTER.num_nodes for s in perturbed)

    def test_zero_factors_are_identity(self):
        assert _apply(Perturb(seed=5)) == list(BASE.jobs(CLUSTER))

    def test_different_seeds_differ(self):
        assert _apply(Perturb(runtime_factor=0.3, seed=1)) != _apply(
            Perturb(runtime_factor=0.3, seed=2)
        )


class TestFilters:
    def test_named_bounds(self):
        specs = _apply(FilterJobs(max_tasks=4, min_runtime_seconds=100.0))
        assert all(s.num_tasks <= 4 and s.execution_time >= 100.0 for s in specs)

    def test_predicate_filter_not_expressible(self):
        transform = PredicateFilter(
            predicate=lambda spec: spec.num_tasks == 1, key="serial-only"
        )
        specs = _apply(transform)
        assert specs and all(s.num_tasks == 1 for s in specs)
        assert not transform.spec_expressible


class TestBootstrap:
    def test_resamples_with_replacement(self):
        specs = _apply(BootstrapResample(num_jobs=300, seed=3))
        assert len(specs) == 300
        # 300 draws from 120 jobs must repeat some submit times.
        assert len({s.submit_time for s in specs}) < 300

    def test_default_size_matches_input(self):
        assert len(_apply(BootstrapResample(seed=3))) == 120


class TestTransformedSource:
    def test_chain_applies_left_to_right(self):
        chained = TransformedSource(
            base=BASE,
            steps=(FilterJobs(max_tasks=8), Head(count=10)),
        )
        specs = list(chained.jobs(CLUSTER))
        assert len(specs) == 10
        assert all(s.num_tasks <= 8 for s in specs)

    def test_convenience_builder(self):
        chained = BASE.transformed(Head(count=5))
        assert len(list(chained.jobs(CLUSTER))) == 5

    def test_round_trip_spec(self):
        chained = DowneyTraceSource(num_jobs=60, seed=2).transformed(
            FilterJobs(max_tasks=16),
            RescaleLoad(target_load=0.6),
            Perturb(runtime_factor=0.1, seed=4),
        )
        rebuilt = trace_source_from_dict(chained.to_dict())
        assert list(rebuilt.jobs(CLUSTER)) == list(chained.jobs(CLUSTER))
        assert chained.spec_expressible

    def test_streaming_flag(self):
        assert BASE.transformed(Head(count=5)).streaming
        assert not BASE.transformed(RescaleLoad(target_load=0.5)).streaming

    def test_expressibility_tracks_steps(self):
        chained = BASE.transformed(
            PredicateFilter(predicate=lambda s: True, key="k")
        )
        assert not chained.spec_expressible

    def test_needs_base_and_steps(self):
        with pytest.raises(ConfigurationError):
            TransformedSource(base=BASE, steps=())
        with pytest.raises(ConfigurationError):
            TransformedSource(base=None, steps=(Head(count=1),))

    def test_default_name_lists_steps(self):
        name = BASE.transformed(Head(count=5)).default_name()
        assert name == "lublin-seed17+head"


class TestRegistry:
    def test_known_transforms_listed(self):
        kinds = available_transforms()
        for expected in (
            "time-window", "scale-interarrival", "rescale-load",
            "perturb", "filter", "head", "bootstrap",
        ):
            assert expected in kinds

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trace transform"):
            transform_from_dict({"type": "nope"})

    def test_transform_source_needs_base(self):
        with pytest.raises(ConfigurationError, match="base"):
            trace_source_from_dict({"type": "transform", "steps": []})
