"""Online, mergeable statistics — the bounded-memory metrics subsystem.

The paper evaluates schedulers by distributional summaries (max/average
stretch, degradation factors, utilization); this package computes those
summaries *online*, so neither the engine nor the campaign layer has to keep
per-job records for million-job traces:

* :mod:`~repro.metrics.accumulators` — the :class:`Accumulator` contract
  (O(1) ``add``, associative ``merge``, canonical ``to_dict``/``from_dict``
  via a registry) and the standard set: Welford :class:`Moments`, exact
  :class:`SumAccumulator` tallies, :class:`TopK` trackers, and the
  O(observations) :class:`ExactDistribution` reference mode that keeps
  legacy outputs byte-identical;
* :mod:`~repro.metrics.quantiles` — :class:`QuantileSketch`, a log-binned
  DDSketch-style quantile sketch with a proven relative-error bound and an
  exactly associative merge;
* :mod:`~repro.metrics.jobs` — :class:`JobMetricsAccumulator`, the composite
  the engine feeds in ``SimulationConfig(streaming_metrics=True)`` mode, and
  the bundle helpers streaming metric collectors use to ship partials across
  the multiprocessing pool;
* :mod:`~repro.metrics.stretch` — the paper's per-job and per-instance
  metrics themselves: the 30-second bounded stretch (§II-B2) and the
  degradation factor from best with its Table I aggregate (§V).

Everything merges associatively, so ``merge(worker_1, merge(worker_2,
worker_3))`` equals ``merge(merge(worker_1, worker_2), worker_3)`` — the
property that makes campaign fan-out exact.
"""

from .accumulators import (
    Accumulator,
    ExactDistribution,
    Moments,
    SumAccumulator,
    TimeWeightedValue,
    TopK,
    accumulator_from_dict,
    available_accumulators,
    merge_accumulators,
    register_accumulator,
)
from .jobs import (
    JobMetricsAccumulator,
    bundle_from_dict,
    bundle_to_dict,
    merge_bundles,
)
from .quantiles import DEFAULT_RELATIVE_ERROR, QuantileSketch, nearest_rank
from .stretch import (
    STRETCH_BOUND_SECONDS,
    DegradationStats,
    aggregate_degradation,
    bounded_stretch,
    degradation_factors,
)

__all__ = [
    "Accumulator",
    "Moments",
    "SumAccumulator",
    "ExactDistribution",
    "TopK",
    "TimeWeightedValue",
    "QuantileSketch",
    "DEFAULT_RELATIVE_ERROR",
    "nearest_rank",
    "JobMetricsAccumulator",
    "bundle_to_dict",
    "bundle_from_dict",
    "merge_bundles",
    "register_accumulator",
    "accumulator_from_dict",
    "available_accumulators",
    "merge_accumulators",
    "STRETCH_BOUND_SECONDS",
    "bounded_stretch",
    "degradation_factors",
    "DegradationStats",
    "aggregate_degradation",
]
