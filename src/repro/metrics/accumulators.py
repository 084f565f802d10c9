"""Online, mergeable statistics accumulators.

Every accumulator in this module follows one contract:

* ``add(value, ...)`` consumes one observation in O(1) (amortised) time and
  O(1) (or O(k)) memory — never O(observations);
* ``merge(other)`` folds another accumulator of the same type (and
  configuration) into this one, **associatively and commutatively**: merging
  per-worker partials in any grouping yields the same summary, which is what
  lets a multiprocessing campaign combine partial results exactly.  The only
  caveat is :class:`Moments`, whose mean/variance merge is associative up to
  floating-point rounding (documented on the class);
* ``to_dict()`` returns a canonical JSON-serialisable form (with a ``type``
  field) that round-trips through :func:`accumulator_from_dict`, so
  accumulator *state* can cross process boundaries and live in campaign run
  caches;
* ``summary()`` returns a flat ``{statistic: value}`` dictionary for
  reporting.

The quantile sketch lives in :mod:`repro.metrics.quantiles` (it is big
enough to deserve its own module) and registers itself here on import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, ReproError
from ..registry import Registry

__all__ = [
    "Accumulator",
    "Moments",
    "SumAccumulator",
    "ExactDistribution",
    "TopK",
    "TimeWeightedValue",
    "register_accumulator",
    "accumulator_from_dict",
    "available_accumulators",
    "merge_accumulators",
]


class Accumulator:
    """Abstract mergeable online statistic.

    Subclasses set ``kind`` (the registry/spec name), implement ``add``,
    ``merge``, ``to_dict``/``from_dict``, and ``summary``, and register
    themselves with :func:`register_accumulator`.
    """

    kind: str = "abstract"

    @property
    def count(self) -> int:
        """Number of observations consumed so far."""
        raise NotImplementedError

    def add(self, value: float) -> None:
        raise NotImplementedError

    def update(self, values: Iterable[float]) -> None:
        """Consume an iterable of observations."""
        for value in values:
            self.add(value)

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Fold ``other`` into this accumulator (in place); returns ``self``."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Accumulator":
        raise NotImplementedError

    def summary(self) -> Dict[str, float]:
        raise NotImplementedError

    def _require_same_type(self, other: "Accumulator") -> None:
        if type(other) is not type(self):
            raise ReproError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
# Loaders take the whole ``to_dict`` mapping (state included), not options.
ACCUMULATORS: Registry[Accumulator] = Registry("accumulator", base=Accumulator)
register_accumulator = ACCUMULATORS.register
available_accumulators = ACCUMULATORS.available


def accumulator_from_dict(data: Mapping[str, Any]) -> Accumulator:
    """Rebuild an accumulator from its ``to_dict`` form (state included)."""
    return ACCUMULATORS.lookup(ACCUMULATORS.kind_of(data))(data)


def merge_accumulators(parts: Sequence[Accumulator]) -> Accumulator:
    """Merge a non-empty sequence of same-type accumulators left to right."""
    if not parts:
        raise ReproError("cannot merge an empty sequence of accumulators")
    merged = parts[0]
    for part in parts[1:]:
        merged.merge(part)
    return merged


# --------------------------------------------------------------------------- #
# Welford moments                                                              #
# --------------------------------------------------------------------------- #
@dataclass
class Moments(Accumulator):
    """Count / mean / variance / min / max via Welford's online algorithm.

    ``merge`` uses Chan's parallel-variance formula, so per-worker partials
    combine into exactly the moments of the concatenated stream — up to
    floating-point rounding (count, min, and max merge exactly; mean and
    variance are associative to within a few ulps).
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    kind = "moments"

    @property
    def count(self) -> int:
        return self.n

    @property
    def variance(self) -> float:
        """Population variance (``ddof=0``); 0 for fewer than two values."""
        return self.m2 / self.n if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Sum of observations, reconstructed as ``mean × count``."""
        return self.mean * self.n

    def add(self, value: float) -> None:
        value = float(value)
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def update(self, values: Iterable[float]) -> None:
        """Bulk Welford over local variables — identical arithmetic to
        repeated :meth:`add`, but one attribute write-back per batch instead
        of six attribute round-trips per sample (telemetry flushes push tens
        of thousands of phase durations through here)."""
        n = self.n
        mean = self.mean
        m2 = self.m2
        minimum = self.minimum
        maximum = self.maximum
        for value in values:
            value = float(value)
            n += 1
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.n = n
        self.mean = mean
        self.m2 = m2
        self.minimum = minimum
        self.maximum = maximum

    def merge(self, other: Accumulator) -> "Moments":
        self._require_same_type(other)
        assert isinstance(other, Moments)
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            self.minimum, self.maximum = other.minimum, other.maximum
            return self
        total = self.n + other.n
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.n * other.n / total
        self.mean += delta * other.n / total
        self.n = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "n": self.n,
            "mean": self.mean,
            "m2": self.m2,
            # JSON has no +-inf literal; the empty sentinel travels as None.
            "min": self.minimum if self.n else None,
            "max": self.maximum if self.n else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Moments":
        n = int(data.get("n", 0))
        return cls(
            n=n,
            mean=float(data.get("mean", 0.0)),
            m2=float(data.get("m2", 0.0)),
            minimum=float(data["min"]) if n else math.inf,
            maximum=float(data["max"]) if n else -math.inf,
        )

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.n),
            "mean": self.mean if self.n else 0.0,
            "std": self.std,
            "min": self.minimum if self.n else 0.0,
            "max": self.maximum if self.n else 0.0,
        }


# --------------------------------------------------------------------------- #
# Plain sums                                                                   #
# --------------------------------------------------------------------------- #
@dataclass
class SumAccumulator(Accumulator):
    """Exact running total (and count) — for tallies such as cost counters.

    Unlike :class:`Moments`, the total is tracked directly, so integer tallies
    (preemption counts, job counts) merge without floating-point drift.
    """

    total: float = 0.0
    n: int = 0

    kind = "sum"

    @property
    def count(self) -> int:
        return self.n

    def add(self, value: float) -> None:
        self.total += value
        self.n += 1

    def merge(self, other: Accumulator) -> "SumAccumulator":
        self._require_same_type(other)
        assert isinstance(other, SumAccumulator)
        self.total += other.total
        self.n += other.n
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "total": self.total, "n": self.n}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SumAccumulator":
        return cls(total=float(data.get("total", 0.0)), n=int(data.get("n", 0)))

    def summary(self) -> Dict[str, float]:
        return {"count": float(self.n), "total": self.total}


# --------------------------------------------------------------------------- #
# Exact distribution (the non-streaming reference mode)                        #
# --------------------------------------------------------------------------- #
# eq=False: the generated __eq__ would compare `values` fields, and
# `ndarray == list` evaluates element-wise (ambiguous truth value) for the
# documented zero-copy ndarray wrap.  Compare via to_dict() instead.
@dataclass(eq=False)
class ExactDistribution(Accumulator):
    """Keeps every value — exact percentiles, O(observations) memory.

    This is the *exact mode* behind
    :func:`repro.analysis.fairness.stretch_fairness`'s tail percentile: it
    computes with the same NumPy operations as the historical ad-hoc code,
    so routing call sites through it keeps their outputs byte-identical.  ``values`` accepts a list or an ndarray — an
    ndarray is wrapped zero-copy (query-only call sites pay nothing) and is
    normalised to a list only when a mutation (``add``/``merge``) needs
    one.  Use it when the sample is known to be small; use
    :class:`~repro.metrics.quantiles.QuantileSketch` when it is not.
    """

    values: Sequence[float] = field(default_factory=list)

    kind = "exact"

    @property
    def count(self) -> int:
        return len(self.values)

    def _ensure_list(self) -> List[float]:
        if not isinstance(self.values, list):
            self.values = [float(value) for value in self.values]
        return self.values

    def add(self, value: float) -> None:
        self._ensure_list().append(float(value))

    def merge(self, other: Accumulator) -> "ExactDistribution":
        self._require_same_type(other)
        assert isinstance(other, ExactDistribution)
        self._ensure_list().extend(float(value) for value in other.values)
        return self

    def as_array(self) -> np.ndarray:
        # Cached so repeated percentile queries (and ``summary``)
        # convert the sample once; every intake path appends, so a length
        # check is a sufficient invalidation rule.
        cached = getattr(self, "_array_cache", None)
        if cached is None or cached.size != len(self.values):
            cached = np.asarray(self.values, dtype=float)
            self._array_cache = cached
        return cached

    def percentile(self, q: float) -> float:
        """Exact linear-interpolation percentile (NumPy semantics), ``q`` in [0, 100]."""
        if len(self.values) == 0:
            raise ReproError("cannot take a percentile of an empty sample")
        return float(np.percentile(self.as_array(), q))

    def quantile(self, q: float) -> float:
        """Exact quantile, ``q`` in [0, 1] (sketch-compatible signature)."""
        return self.percentile(100.0 * q)

    def to_dict(self) -> Dict[str, Any]:
        # float() each entry so an ndarray-backed sample serialises to plain
        # JSON numbers, not numpy scalars.
        return {"type": self.kind, "values": [float(value) for value in self.values]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExactDistribution":
        return cls(values=[float(value) for value in data.get("values", ())])

    def summary(self) -> Dict[str, float]:
        if len(self.values) == 0:
            return {"count": 0.0}
        array = self.as_array()
        return {
            "count": float(array.size),
            "mean": float(array.mean()),
            "std": float(array.std(ddof=0)),
            "min": float(array.min()),
            "p50": float(np.percentile(array, 50)),
            "max": float(array.max()),
        }


# --------------------------------------------------------------------------- #
# Top-k tracker                                                                #
# --------------------------------------------------------------------------- #
@dataclass
class TopK(Accumulator):
    """The ``k`` largest ``(value, key)`` observations seen so far.

    Keys must be unique across the stream (job ids are); ties in value are
    broken by smaller key — numerically for numeric keys (job ids), then
    lexicographically for everything else — which makes the selection a
    total order and the merge exactly associative.  ``items()`` returns the
    retained pairs, largest first.
    """

    k: int = 10
    n: int = 0
    # Kept sorted by descending value, ascending key (see _order).
    _items: List[Tuple[float, Any]] = field(default_factory=list)

    kind = "top-k"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")

    @property
    def count(self) -> int:
        return self.n

    @staticmethod
    def _order(item: Tuple[float, Any]) -> Tuple[float, int, float, str]:
        value, key = item
        if isinstance(key, (int, float)) and not isinstance(key, bool):
            return (-value, 0, float(key), "")
        return (-value, 1, 0.0, str(key))

    def _truncate(self) -> None:
        self._items.sort(key=self._order)
        del self._items[self.k:]

    def add(self, value: float, key: Any = None) -> None:  # type: ignore[override]
        self.n += 1
        self._items.append((float(value), key))
        if len(self._items) > 2 * self.k:
            self._truncate()

    def merge(self, other: Accumulator) -> "TopK":
        self._require_same_type(other)
        assert isinstance(other, TopK)
        if other.k != self.k:
            raise ReproError(f"cannot merge top-{other.k} into top-{self.k}")
        self.n += other.n
        self._items.extend(other._items)
        self._truncate()
        return self

    def items(self) -> List[Tuple[float, Any]]:
        """Retained ``(value, key)`` pairs, largest value first."""
        self._truncate()
        return list(self._items)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "k": self.k,
            "n": self.n,
            "items": [[value, key] for value, key in self.items()],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopK":
        out = cls(k=int(data["k"]), n=int(data.get("n", 0)))
        out._items = [(float(value), key) for value, key in data.get("items", ())]
        out._truncate()
        return out

    def summary(self) -> Dict[str, float]:
        items = self.items()
        return {
            "count": float(self.n),
            "max": items[0][0] if items else 0.0,
            "kth": items[-1][0] if items else 0.0,
        }


# --------------------------------------------------------------------------- #
# Time-weighted value (piecewise-constant signal statistics)                   #
# --------------------------------------------------------------------------- #
@dataclass
class TimeWeightedValue(Accumulator):
    """Statistics of a piecewise-constant signal, weighted by duration.

    Built for time series the engine already integrates analytically — the
    busy-node count between two events, for example: each constant segment
    is consumed as ``add_segment(value, duration)`` in O(1), and the
    time-weighted mean is ``∫ value dt / ∫ dt``.  Segments from disjoint
    runs merge exactly (sums of integrals are associative and commutative),
    which is what lets the streaming ``utilization`` collector combine
    per-instance busy-node partials across the campaign worker pool.
    """

    integral: float = 0.0
    duration: float = 0.0
    n: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf

    kind = "time-weighted"

    @property
    def count(self) -> int:
        return self.n

    @property
    def mean(self) -> float:
        """Time-weighted mean value; 0 with no elapsed duration."""
        return self.integral / self.duration if self.duration > 0 else 0.0

    def add(self, value: float) -> None:
        raise ReproError(
            "TimeWeightedValue observations carry a duration; use "
            "add_segment(value, duration) instead of add(value)"
        )

    def add_segment(self, value: float, duration: float) -> None:
        """Consume one constant segment of the signal (duration in seconds)."""
        duration = float(duration)
        if duration < 0:
            raise ReproError(f"segment duration must be >= 0, got {duration}")
        value = float(value)
        self.integral += value * duration
        self.duration += duration
        self.n += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: Accumulator) -> "TimeWeightedValue":
        self._require_same_type(other)
        assert isinstance(other, TimeWeightedValue)
        self.integral += other.integral
        self.duration += other.duration
        self.n += other.n
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "integral": self.integral,
            "duration": self.duration,
            "n": self.n,
            # JSON has no +-inf literal; the empty sentinel travels as None.
            "min": self.minimum if self.n else None,
            "max": self.maximum if self.n else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimeWeightedValue":
        n = int(data.get("n", 0))
        return cls(
            integral=float(data.get("integral", 0.0)),
            duration=float(data.get("duration", 0.0)),
            n=n,
            minimum=float(data["min"]) if n else math.inf,
            maximum=float(data["max"]) if n else -math.inf,
        )

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.n),
            "mean": self.mean,
            "min": self.minimum if self.n else 0.0,
            "max": self.maximum if self.n else 0.0,
            "duration": self.duration,
        }


register_accumulator("moments", Moments.from_dict)
register_accumulator("sum", SumAccumulator.from_dict)
register_accumulator("exact", ExactDistribution.from_dict)
register_accumulator("top-k", TopK.from_dict)
register_accumulator("time-weighted", TimeWeightedValue.from_dict)
