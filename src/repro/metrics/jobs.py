"""Composite accumulator over per-job simulation outcomes.

:class:`JobMetricsAccumulator` is what the engine feeds in streaming-metrics
mode (``SimulationConfig(streaming_metrics=True)``) instead of materialising
one :class:`~repro.core.records.JobRecord` per job: Welford moments over
stretch / turnaround / wait time, a mergeable quantile sketch over stretch
and turnaround, and a top-k tracker of the worst-stretch jobs.  It is itself
an :class:`Accumulator` — it merges field-wise, serialises to a JSON
dictionary, and registers under the ``"job-metrics"`` type — so per-worker
partials from a campaign combine exactly into per-cell summaries.

The module also provides the *bundle* helpers used by streaming metric
collectors: a bundle is a plain ``{name: Accumulator}`` mapping, merged
name-wise across workers and serialised with
:func:`bundle_to_dict`/:func:`bundle_from_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence

from ..exceptions import ReproError
from .accumulators import (
    Accumulator,
    Moments,
    TopK,
    accumulator_from_dict,
    register_accumulator,
)
from .quantiles import QuantileSketch

__all__ = [
    "JobMetricsAccumulator",
    "bundle_to_dict",
    "bundle_from_dict",
    "merge_bundles",
]

#: Worst-job tracker depth.
_DEFAULT_TOP_K = 10


@dataclass
class JobMetricsAccumulator(Accumulator):
    """Bounded-memory summary of every completed job of a simulation.

    Beyond the flat :meth:`summary`, ``worst_stretch.items()`` names the
    worst-stretch job ids (surfaced as the ``worst_job_id`` column of
    streaming campaign rows).  Both sketches run at
    :data:`~repro.metrics.quantiles.DEFAULT_RELATIVE_ERROR`.
    """

    stretch: Moments = field(default_factory=Moments)
    turnaround: Moments = field(default_factory=Moments)
    wait: Moments = field(default_factory=Moments)
    stretch_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    turnaround_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    worst_stretch: TopK = field(default_factory=lambda: TopK(k=_DEFAULT_TOP_K))

    kind = "job-metrics"

    @property
    def count(self) -> int:
        return self.stretch.count

    # -- intake ----------------------------------------------------------------
    def observe(
        self, *, job_id: int, stretch: float, turnaround: float, wait: float
    ) -> None:
        """Consume the outcome of one completed job."""
        self.stretch.add(stretch)
        self.turnaround.add(turnaround)
        self.wait.add(wait)
        self.stretch_sketch.add(stretch)
        self.turnaround_sketch.add(turnaround)
        self.worst_stretch.add(stretch, key=job_id)

    def add(self, value: float) -> None:  # pragma: no cover - composite intake
        raise ReproError("JobMetricsAccumulator consumes jobs via observe(), not add()")

    # -- merge -----------------------------------------------------------------
    def merge(self, other: Accumulator) -> "JobMetricsAccumulator":
        self._require_same_type(other)
        assert isinstance(other, JobMetricsAccumulator)
        self.stretch.merge(other.stretch)
        self.turnaround.merge(other.turnaround)
        self.wait.merge(other.wait)
        self.stretch_sketch.merge(other.stretch_sketch)
        self.turnaround_sketch.merge(other.turnaround_sketch)
        self.worst_stretch.merge(other.worst_stretch)
        return self

    # -- queries ---------------------------------------------------------------
    def stretch_quantile(self, q: float) -> float:
        """Sketched stretch quantile, ``q`` in [0, 1] (see QuantileSketch)."""
        return self.stretch_sketch.quantile(q)

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "stretch": self.stretch.to_dict(),
            "turnaround": self.turnaround.to_dict(),
            "wait": self.wait.to_dict(),
            "stretch_sketch": self.stretch_sketch.to_dict(),
            "turnaround_sketch": self.turnaround_sketch.to_dict(),
            "worst_stretch": self.worst_stretch.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobMetricsAccumulator":
        return cls(
            stretch=Moments.from_dict(data["stretch"]),
            turnaround=Moments.from_dict(data["turnaround"]),
            wait=Moments.from_dict(data["wait"]),
            stretch_sketch=QuantileSketch.from_dict(data["stretch_sketch"]),
            turnaround_sketch=QuantileSketch.from_dict(data["turnaround_sketch"]),
            worst_stretch=TopK.from_dict(data["worst_stretch"]),
        )

    def summary(self) -> Dict[str, float]:
        """Flat headline statistics; quantiles carry the sketch's error bound."""
        if self.count == 0:
            return {"num_jobs": 0.0}
        return {
            "num_jobs": float(self.count),
            "max_stretch": self.stretch.maximum,
            "mean_stretch": self.stretch.mean,
            "stretch_p50": self.stretch_sketch.quantile(0.50),
            "stretch_p90": self.stretch_sketch.quantile(0.90),
            "stretch_p99": self.stretch_sketch.quantile(0.99),
            "mean_turnaround": self.turnaround.mean,
            "turnaround_p99": self.turnaround_sketch.quantile(0.99),
            "mean_wait": self.wait.mean,
        }


register_accumulator("job-metrics", JobMetricsAccumulator.from_dict)


# --------------------------------------------------------------------------- #
# Bundles: named accumulator sets shipped between campaign workers             #
# --------------------------------------------------------------------------- #
def bundle_to_dict(bundle: Mapping[str, Accumulator]) -> Dict[str, Dict[str, Any]]:
    """Serialise a ``{name: Accumulator}`` mapping (what workers ship back)."""
    return {name: accumulator.to_dict() for name, accumulator in bundle.items()}


def bundle_from_dict(data: Mapping[str, Mapping[str, Any]]) -> Dict[str, Accumulator]:
    """Inverse of :func:`bundle_to_dict`, via the accumulator registry."""
    return {name: accumulator_from_dict(payload) for name, payload in data.items()}


def merge_bundles(
    bundles: Sequence[Mapping[str, Accumulator]]
) -> Dict[str, Accumulator]:
    """Merge same-shape bundles name-wise (partials from parallel workers)."""
    if not bundles:
        raise ReproError("cannot merge an empty sequence of bundles")
    names = set(bundles[0])
    for bundle in bundles[1:]:
        if set(bundle) != names:
            raise ReproError(
                "cannot merge bundles with different accumulator sets: "
                f"{sorted(names)} vs {sorted(bundle)}"
            )
    merged: Dict[str, Accumulator] = dict(bundles[0])
    for bundle in bundles[1:]:
        for name, accumulator in bundle.items():
            merged[name] = merged[name].merge(accumulator)
    return merged
