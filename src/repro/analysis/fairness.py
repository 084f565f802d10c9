"""Fairness metrics over per-job outcomes.

The paper motivates maximum-stretch minimization as a metric that couples
performance with fairness (§II-B2).  This module quantifies that coupling on
finished simulations: Jain's fairness index and the Gini coefficient over the
per-job bounded stretches (or any other per-job quantity), from a finished
simulation result or from a streaming run's stretch accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..core.records import SimulationResult
from ..exceptions import ReproError

__all__ = [
    "jain_index",
    "jain_index_from_moments",
    "gini_coefficient",
    "gini_from_masses",
    "FairnessReport",
    "stretch_fairness",
    "streaming_stretch_fairness",
]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``, in ``(0, 1]``.

    Equals 1 when all values are identical and approaches ``1/n`` when one
    value dominates all others.  All values must be non-negative and at least
    one must be positive.
    """
    if len(values) == 0:
        raise ReproError("cannot compute Jain's index of an empty sample")
    array = np.asarray(values, dtype=float)
    if np.any(array < 0):
        raise ReproError("Jain's index requires non-negative values")
    square_sum = float(np.sum(array) ** 2)
    sum_squares = float(np.sum(array**2))
    if sum_squares == 0.0:
        raise ReproError("Jain's index is undefined when every value is zero")
    return square_sum / (array.size * sum_squares)


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient in ``[0, 1)``: 0 is perfect equality.

    Computed with the standard mean-absolute-difference formula.  All values
    must be non-negative and at least one must be positive.
    """
    if len(values) == 0:
        raise ReproError("cannot compute the Gini coefficient of an empty sample")
    array = np.asarray(values, dtype=float)
    if np.any(array < 0):
        raise ReproError("the Gini coefficient requires non-negative values")
    total = float(array.sum())
    if total == 0.0:
        raise ReproError("the Gini coefficient is undefined when every value is zero")
    sorted_values = np.sort(array)
    n = array.size
    ranks = np.arange(1, n + 1, dtype=float)
    return float((2.0 * np.dot(ranks, sorted_values)) / (n * total) - (n + 1.0) / n)


def jain_index_from_moments(moments) -> float:
    """Jain's index from online first/second moments (exact, mergeable).

    ``(Σx)² / (n·Σx²)`` rewrites as ``mean² / (mean² + variance)``, so the
    index needs only a :class:`repro.metrics.Moments` accumulator — no
    per-job population and no sketch approximation.  This is what makes the
    ``fairness`` collector streamable: moments merge exactly across a
    cell's instances.
    """
    if moments.count == 0:
        raise ReproError("cannot compute Jain's index of an empty sample")
    if moments.minimum < 0:
        raise ReproError("Jain's index requires non-negative values")
    mean_square = moments.m2 / moments.n + moments.mean ** 2
    if mean_square == 0.0:
        raise ReproError("Jain's index is undefined when every value is zero")
    return moments.mean ** 2 / mean_square


def gini_from_masses(masses: Sequence[tuple]) -> float:
    """Gini coefficient of a weighted sample (``(value, count)`` pairs).

    ``masses`` must be sorted by ascending value — exactly what
    :meth:`repro.metrics.QuantileSketch.bucket_masses` returns.  Uses the
    rank formulation of the mean-absolute-difference definition: a block of
    ``c`` equal values starting after cumulative count ``s`` contributes
    ranks ``s+1 .. s+c``, whose sum is ``c·s + c·(c+1)/2``.  Fed with sketch
    bucket masses, the result is within a few multiples of the sketch's
    relative-error bound of the exact coefficient.
    """
    if not masses:
        raise ReproError("cannot compute the Gini coefficient of an empty sample")
    total = 0.0
    n = 0
    rank_weighted = 0.0
    previous = -np.inf
    for value, count in masses:
        value = float(value)
        count = int(count)
        if count < 0:
            raise ReproError("mass counts must be >= 0")
        if count == 0:
            continue
        if value < 0:
            raise ReproError("the Gini coefficient requires non-negative values")
        if value < previous:
            raise ReproError("masses must be sorted by ascending value")
        previous = value
        rank_sum = count * n + count * (count + 1) / 2.0
        rank_weighted += value * rank_sum
        total += value * count
        n += count
    if n == 0:
        raise ReproError("cannot compute the Gini coefficient of an empty sample")
    if total == 0.0:
        raise ReproError("the Gini coefficient is undefined when every value is zero")
    return float((2.0 * rank_weighted) / (n * total) - (n + 1.0) / n)


@dataclass(frozen=True)
class FairnessReport:
    """Fairness view of one finished simulation run."""

    algorithm: str
    num_jobs: int
    max_stretch: float
    mean_stretch: float
    #: Jain's index over per-job bounded stretches (1 = perfectly even).
    jain_stretch: float
    #: Gini coefficient over per-job bounded stretches (0 = perfectly even).
    gini_stretch: float
    #: 95th-percentile bounded stretch.
    p95_stretch: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_jobs": float(self.num_jobs),
            "max_stretch": self.max_stretch,
            "mean_stretch": self.mean_stretch,
            "jain_stretch": self.jain_stretch,
            "gini_stretch": self.gini_stretch,
            "p95_stretch": self.p95_stretch,
        }


def stretch_fairness(result: SimulationResult) -> FairnessReport:
    """Fairness report over the bounded stretches of a finished run.

    Needs the materialized per-job records; a streaming-metrics result has
    no per-job distribution to assess (``result.stretches()`` says so).
    The tail percentile routes through the exact-mode accumulator of
    :mod:`repro.metrics` — same NumPy percentile, same bytes.
    """
    from ..metrics import ExactDistribution

    stretches = result.stretches()
    if stretches.size == 0:
        raise ReproError(
            f"run of {result.algorithm!r} finished no jobs; cannot assess fairness"
        )
    return FairnessReport(
        algorithm=result.algorithm,
        num_jobs=int(stretches.size),
        max_stretch=float(stretches.max()),
        mean_stretch=float(stretches.mean()),
        jain_stretch=jain_index(stretches),
        gini_stretch=gini_coefficient(stretches),
        p95_stretch=ExactDistribution(stretches).percentile(95),
    )


def streaming_stretch_fairness(job_stats) -> Dict[str, float]:
    """Fairness row of a streaming-metrics run (or a merged cell).

    ``job_stats`` is a :class:`repro.metrics.JobMetricsAccumulator`.  Jain's
    index is computed **exactly** from the stretch moments (it only needs
    the first two moments — see :func:`jain_index_from_moments`); the Gini
    coefficient and the tail percentile come from the stretch quantile
    sketch's bucket masses and carry its documented relative-error bound.
    """
    if job_stats.count == 0:
        raise ReproError("run finished no jobs; cannot assess fairness")
    sketch = job_stats.stretch_sketch
    return {
        "jain_stretch": jain_index_from_moments(job_stats.stretch),
        "gini_stretch": gini_from_masses(sketch.bucket_masses()),
        "p95_stretch": sketch.percentile(95),
    }
