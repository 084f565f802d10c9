"""Right-continuous step series built from simulation traces.

Every quantity the simulator tracks between events is piecewise constant:
the number of busy nodes, the total allocated CPU, the number of running
jobs, the minimum yield, ...  :class:`StepSeries` models exactly that — a
right-continuous step function defined by breakpoints and values — and
provides the time-weighted statistics (mean, min, max, integral, time above
a threshold) that utilization and energy studies need.

The module also provides the converters from the
:class:`~repro.core.observers.UtilizationRecorder` samples into the two
series those studies read: busy nodes and allocated CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.observers import UtilizationRecorder, UtilizationSample
from ..exceptions import ReproError

__all__ = [
    "StepSeries",
    "busy_nodes_series",
    "cpu_allocated_series",
]


@dataclass(frozen=True)
class StepSeries:
    """A right-continuous step function over a closed time interval.

    The function takes the value ``values[i]`` on ``[times[i], times[i+1])``
    and ``values[-1]`` on ``[times[-1], end]``.  ``times`` must be strictly
    increasing and ``end`` must be at least ``times[-1]``.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]
    end: float

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ReproError(
                f"times and values must have the same length "
                f"({len(self.times)} != {len(self.values)})"
            )
        if not self.times:
            raise ReproError("a StepSeries needs at least one breakpoint")
        for earlier, later in zip(self.times, self.times[1:]):
            if later <= earlier:
                raise ReproError("StepSeries breakpoints must be strictly increasing")
        if self.end < self.times[-1]:
            raise ReproError(
                f"end ({self.end}) must be >= the last breakpoint ({self.times[-1]})"
            )

    # -- construction ----------------------------------------------------------
    @staticmethod
    def from_samples(
        samples: Sequence[Tuple[float, float]], *, end: Optional[float] = None
    ) -> "StepSeries":
        """Build a series from ``(time, value)`` samples.

        Consecutive samples at the same time keep only the last value (the
        state right after the event); consecutive equal values are merged.
        """
        if not samples:
            raise ReproError("cannot build a StepSeries from zero samples")
        ordered = sorted(samples, key=lambda pair: pair[0])
        times: List[float] = []
        values: List[float] = []
        for time, value in ordered:
            if times and time == times[-1]:
                values[-1] = value
            elif values and value == values[-1]:
                continue
            else:
                times.append(float(time))
                values.append(float(value))
        series_end = float(end) if end is not None else ordered[-1][0]
        series_end = max(series_end, times[-1])
        return StepSeries(tuple(times), tuple(values), series_end)

    # -- basic queries ----------------------------------------------------------
    @property
    def start(self) -> float:
        return self.times[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    # -- time-weighted statistics ------------------------------------------------
    def _segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Durations and values of the constant segments covering the domain."""
        times = np.asarray(self.times + (self.end,), dtype=float)
        durations = np.diff(times)
        return durations, np.asarray(self.values, dtype=float)

    def integral(self) -> float:
        """Time integral of the series over its domain."""
        durations, values = self._segments()
        return float(np.dot(durations, values))

    def mean(self) -> float:
        """Time-weighted mean over the domain (0 for a zero-length domain)."""
        if self.duration <= 0:
            return float(self.values[-1])
        # Clamped: on a subnormal domain the rounded integral overshoots.
        return min(max(self.integral() / self.duration, self.min()), self.max())

    def max(self) -> float:
        return float(np.max(self.values))

    def min(self) -> float:
        return float(np.min(self.values))

    def fraction_above(self, threshold: float) -> float:
        """Fraction of the domain during which the value strictly exceeds ``threshold``."""
        durations, values = self._segments()
        total = durations.sum()
        if total <= 0:
            return 0.0
        return float(durations[values > threshold].sum() / total)

    def fraction_at_or_below(self, threshold: float) -> float:
        """Fraction of the domain during which the value is ≤ ``threshold``."""
        return 1.0 - self.fraction_above(threshold)


# --------------------------------------------------------------------------- #
# Converters from the utilization recorder                                     #
# --------------------------------------------------------------------------- #
def _series_from_recorder(
    recorder: UtilizationRecorder,
    extract: Callable[[UtilizationSample], float],
    *,
    end: Optional[float] = None,
) -> StepSeries:
    if not recorder.samples:
        raise ReproError(
            "the utilization recorder holds no samples; was it passed to the "
            "Simulator as an observer?"
        )
    samples = [(sample.time, extract(sample)) for sample in recorder.samples]
    return StepSeries.from_samples(samples, end=end)


def busy_nodes_series(
    recorder: UtilizationRecorder, *, end: Optional[float] = None
) -> StepSeries:
    """Number of busy (non-idle) nodes over time."""
    return _series_from_recorder(recorder, lambda s: float(s.busy_nodes), end=end)


def cpu_allocated_series(
    recorder: UtilizationRecorder, *, end: Optional[float] = None
) -> StepSeries:
    """Total allocated CPU (in node units) over time."""
    return _series_from_recorder(recorder, lambda s: s.cpu_allocated, end=end)
