"""The stretch metrics of the paper's evaluation.

* **bounded stretch** (§II-B2): turn-around time over dedicated execution
  time, with both the numerator and the threshold bounded below by 30 s so
  that very short (often failing) jobs do not dominate the metric.
* **degradation factor** (§V): per instance, the ratio of an algorithm's
  maximum stretch to the best maximum stretch achieved by any algorithm on
  that instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

__all__ = [
    "STRETCH_BOUND_SECONDS",
    "bounded_stretch",
    "degradation_factors",
    "DegradationStats",
    "aggregate_degradation",
]

#: Threshold of the bounded stretch (and of the priority function numerator).
STRETCH_BOUND_SECONDS = 30.0


def bounded_stretch(
    turnaround_time: float,
    dedicated_time: float,
    bound: float = STRETCH_BOUND_SECONDS,
) -> float:
    """Bounded stretch with the paper's 30-second threshold.

    Both the turn-around time and the dedicated time are replaced by
    ``max(value, bound)``, which caps the stretch of very short jobs at a
    meaningful value while leaving long jobs untouched.
    """
    if turnaround_time < 0:
        raise ValueError(f"turnaround_time must be >= 0, got {turnaround_time}")
    if dedicated_time <= 0:
        raise ValueError(f"dedicated_time must be > 0, got {dedicated_time}")
    if bound <= 0:
        raise ValueError(f"bound must be > 0, got {bound}")
    return max(turnaround_time, bound) / max(dedicated_time, bound)


def degradation_factors(
    max_stretch_by_algorithm: Mapping[str, float]
) -> Dict[str, float]:
    """Per-algorithm degradation factors for one instance.

    The degradation factor of an algorithm is its maximum stretch divided by
    the smallest maximum stretch achieved by any algorithm on the same
    instance; the best algorithm therefore gets exactly 1.0.
    """
    if not max_stretch_by_algorithm:
        return {}
    values = list(max_stretch_by_algorithm.values())
    for name, value in max_stretch_by_algorithm.items():
        if value <= 0:
            raise ValueError(f"algorithm {name}: max stretch must be > 0, got {value}")
    best = min(values)
    return {name: value / best for name, value in max_stretch_by_algorithm.items()}


@dataclass(frozen=True)
class DegradationStats:
    """Average / standard deviation / maximum of degradation factors."""

    average: float
    std: float
    maximum: float
    count: int

    def as_row(self) -> List[float]:
        return [self.average, self.std, self.maximum]


def aggregate_degradation(values: Sequence[float]) -> DegradationStats:
    """Aggregate per-instance degradation factors as in Table I.

    ``values`` may be any sized sequence, a NumPy array included (its truth
    value is ambiguous, so the empty test reads the length)."""
    if len(values) == 0:
        return DegradationStats(0.0, 0.0, 0.0, 0)
    array = np.asarray(values, dtype=float)
    return DegradationStats(
        average=float(array.mean()),
        std=float(array.std(ddof=0)),
        maximum=float(array.max()),
        count=int(array.size),
    )
