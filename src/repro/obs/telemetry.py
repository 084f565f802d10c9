"""The telemetry sink: named counters, gauges, and phase timers.

:class:`Telemetry` is the in-process sink the engine (and the serve layer)
write into when a run is instrumented.  Three instrument families:

* **counters** — monotonically increasing integers (events processed,
  scheduler invocations, stream admissions);
* **gauges** — sampled values folded into :class:`~repro.metrics.Moments`
  (active jobs per scheduler invocation, queue depths);
* **phase timers** — wall-clock durations of named engine phases
  (``engine.advance``, ``engine.schedule``, ``packing.mcb8``, ...), folded
  into :class:`~repro.metrics.Moments` and optionally kept as individual
  span events for the Chrome-trace exporter (:mod:`repro.obs.tracing`).

Everything merges through bundles: :meth:`Telemetry.bundle` serialises the
sink through the :mod:`repro.metrics` accumulator registry — the same
bundle path streaming metrics use — :func:`merge_telemetry_bundles` folds
per-worker bundles from a campaign pool (counters add, gauges and phases
merge through the accumulators' associative ``merge``), and
:func:`summarize_bundle` turns a merged bundle back into the flat JSON
summary.

The sink is deliberately cheap when hot: ``record_phase`` appends to a
per-phase buffer and folds into the ``Moments`` in batches, so the
per-event cost is two timer reads and a list append.  When no sink is
attached the engine skips every instrumentation site behind a single
``is None`` check — the disabled path is byte-identical and near-zero
overhead (asserted by ``benchmarks/test_bench_engine_throughput.py``).

Spec form
---------
Scenario specs and :class:`~repro.core.engine.SimulationConfig` carry a
declarative ``{"type": "off" | "stats" | "tracing", ...}`` mapping rather
than a live sink, so configs stay picklable and hashable;
:func:`telemetry_spec` validates it into its canonical form and
:func:`as_telemetry` builds each run's own sink from it.

Wall-clock reads in schedulers and packers flow through the *ambient* sink
(:func:`current_telemetry`), a thread-local the engine activates around
each scheduler invocation — packers pick it up without any plumbing through
the scheduler protocol.
"""

from __future__ import annotations

import functools
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..exceptions import ConfigurationError
from ..metrics import Accumulator, Moments, SumAccumulator, accumulator_from_dict
from .timing import perf_counter

__all__ = [
    "Telemetry",
    "as_telemetry",
    "current_telemetry",
    "merge_telemetry_bundles",
    "summarize_bundle",
    "telemetry_spec",
    "timed_phase",
]

#: Span-event cap of the tracing sink: a 1M-job replay emits a few spans per
#: event, so an unbounded list could dominate memory; overflow increments
#: ``dropped_spans`` instead of growing the list.
DEFAULT_MAX_SPANS = 1_000_000

#: Pending phase durations are folded into the ``Moments`` in batches of
#: this size — ``Moments.add`` per hot-loop call would triple the cost of a
#: ``record_phase``.
_FLUSH_THRESHOLD = 2048


class Telemetry:
    """In-process telemetry sink; see the module docstring.

    ``capture_spans`` additionally keeps every phase duration as an
    individual ``(name, start, duration)`` span event (perf-counter
    seconds), feeding the Chrome-trace exporter; ``max_spans`` bounds that
    list.
    """

    def __init__(
        self,
        *,
        capture_spans: bool = False,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans < 0:
            raise ConfigurationError(f"max_spans must be >= 0, got {max_spans}")
        self.capture_spans = capture_spans
        self.max_spans = max_spans
        self.counters: Dict[str, int] = {}
        self.dropped_spans = 0
        #: Optional per-job flight recorder (:mod:`repro.obs.flight`); the
        #: engine attaches a :class:`~repro.obs.flight.FlightObserver` when
        #: this is set, so spec-built instrumented runs can carry the job
        #: lifecycle log alongside the aggregate instruments.
        self.flight: Optional[Any] = None
        self._gauges: Dict[str, Moments] = {}
        self._phases: Dict[str, Moments] = {}
        self._pending: Dict[str, List[float]] = {}
        self._pending_gauges: Dict[str, List[float]] = {}
        self._spans: List[Tuple[str, float, float]] = []

    #: Monotonic interval timer (the timing seam) — instrumentation sites
    #: read ``tel.now()`` so every wall-clock read stays behind the sink.
    now = staticmethod(perf_counter)

    # -- intake ----------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Fold one sampled value into gauge ``name`` (batched, like
        phases: a list append per sample, bulk Welford at flush)."""
        pending = self._pending_gauges.get(name)
        if pending is None:
            pending = self._pending_gauges[name] = []
        pending.append(float(value))
        if len(pending) >= _FLUSH_THRESHOLD:
            self._flush_gauge(name)

    def record_phase(self, name: str, start: float, end: float) -> None:
        """Record one timed occurrence of phase ``name``.

        ``start``/``end`` are :meth:`now` readings; the duration lands in
        the phase's ``Moments`` (batched) and, under ``capture_spans``, the
        span event list.
        """
        pending = self._pending.get(name)
        if pending is None:
            pending = self._pending[name] = []
        pending.append(end - start)
        if len(pending) >= _FLUSH_THRESHOLD:
            self._flush_phase(name)
        if self.capture_spans:
            if len(self._spans) < self.max_spans:
                self._spans.append((name, start, end - start))
            else:
                self.dropped_spans += 1

    # -- read-out --------------------------------------------------------------
    def _flush_phase(self, name: str) -> None:
        pending = self._pending.get(name)
        if not pending:
            return
        moments = self._phases.get(name)
        if moments is None:
            moments = self._phases[name] = Moments()
        moments.update(pending)
        pending.clear()

    def _flush_gauge(self, name: str) -> None:
        pending = self._pending_gauges.get(name)
        if not pending:
            return
        moments = self._gauges.get(name)
        if moments is None:
            moments = self._gauges[name] = Moments()
        moments.update(pending)
        pending.clear()

    def _flush(self) -> None:
        for name in list(self._pending):
            self._flush_phase(name)
        for name in list(self._pending_gauges):
            self._flush_gauge(name)

    def phases(self) -> Dict[str, Moments]:
        """Phase-duration moments (seconds), keyed by phase name."""
        self._flush()
        return dict(self._phases)

    def gauges(self) -> Dict[str, Moments]:
        """Gauge moments, keyed by gauge name."""
        for name in list(self._pending_gauges):
            self._flush_gauge(name)
        return dict(self._gauges)

    def span_events(self) -> List[Tuple[str, float, float]]:
        """Captured ``(name, start, duration)`` span events (seconds)."""
        return list(self._spans)

    # -- serialisation ---------------------------------------------------------
    def bundle(self) -> Dict[str, Accumulator]:
        """The sink as a mergeable accumulator bundle.

        Names are prefixed by instrument family (``counter.``, ``gauge.``,
        ``phase.``) so :func:`summarize_bundle` can reconstruct the summary
        from a bundle merged across workers.  Span events are *not* part of
        the bundle — they are a per-process profiling artifact, exported
        through :mod:`repro.obs.tracing` instead.
        """
        self._flush()
        bundle: Dict[str, Accumulator] = {}
        for name, value in self.counters.items():
            bundle[f"counter.{name}"] = SumAccumulator(total=float(value), n=1)
        for name, moments in self._gauges.items():
            bundle[f"gauge.{name}"] = moments
        for name, moments in self._phases.items():
            bundle[f"phase.{name}"] = moments
        return bundle

    def summary(self) -> Dict[str, Any]:
        """Flat JSON-serialisable summary (what campaign rows carry)."""
        return summarize_bundle(self.bundle(), dropped_spans=self.dropped_spans)


def _moments_summary(moments: Moments) -> Dict[str, Any]:
    if moments.n == 0:
        return {"n": 0, "mean": None, "min": None, "max": None}
    return {
        "n": moments.n,
        "mean": moments.mean,
        "min": moments.minimum,
        "max": moments.maximum,
    }


def _phase_summary(moments: Moments) -> Dict[str, Any]:
    if moments.n == 0:
        return {"count": 0, "total_seconds": 0.0, "mean_ms": None, "max_ms": None}
    return {
        "count": moments.n,
        "total_seconds": moments.mean * moments.n,
        "mean_ms": moments.mean * 1e3,
        "max_ms": moments.maximum * 1e3,
    }


def summarize_bundle(
    bundle: Mapping[str, Accumulator], *, dropped_spans: int = 0
) -> Dict[str, Any]:
    """Flat JSON summary of a (possibly merged) telemetry bundle."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, Any] = {}
    phases: Dict[str, Any] = {}
    for name in sorted(bundle):
        accumulator = bundle[name]
        if name.startswith("counter.") and isinstance(accumulator, SumAccumulator):
            counters[name[len("counter."):]] = int(accumulator.total)
        elif name.startswith("gauge.") and isinstance(accumulator, Moments):
            gauges[name[len("gauge."):]] = _moments_summary(accumulator)
        elif name.startswith("phase.") and isinstance(accumulator, Moments):
            phases[name[len("phase."):]] = _phase_summary(accumulator)
    summary: Dict[str, Any] = {
        "counters": counters,
        "gauges": gauges,
        "phases": phases,
    }
    if dropped_spans:
        summary["dropped_spans"] = dropped_spans
    return summary


def merge_telemetry_bundles(
    bundles: Sequence[Mapping[str, Mapping[str, Any]]]
) -> Dict[str, Accumulator]:
    """Merge serialised telemetry bundles from parallel workers, union-wise.

    Unlike :func:`repro.metrics.merge_bundles` (which insists on identical
    name sets, the right contract for collector rows), telemetry instrument
    sets legitimately differ between shards — a packer phase only exists in
    shards whose scheduler ever invoked that packer — so names are merged
    where present.
    """
    merged: Dict[str, Accumulator] = {}
    for bundle in bundles:
        for name, payload in bundle.items():
            accumulator = accumulator_from_dict(payload)
            if name in merged:
                merged[name].merge(accumulator)
            else:
                merged[name] = accumulator
    return merged


# ---------------------------------------------------------------- ambient sink
_ACTIVE = threading.local()


def current_telemetry() -> Optional[Telemetry]:
    """The ambient sink of the calling thread (None when uninstrumented).

    The engine activates its sink around each scheduler invocation, so
    packers and schedulers time themselves without any telemetry parameter
    in the scheduler protocol.
    """
    return getattr(_ACTIVE, "telemetry", None)


def push_telemetry(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``telemetry`` as the thread's ambient sink; returns the prior."""
    previous = getattr(_ACTIVE, "telemetry", None)
    _ACTIVE.telemetry = telemetry
    return previous


_F = TypeVar("_F", bound=Callable[..., Any])


def timed_phase(name: str) -> Callable[[_F], _F]:
    """Decorator timing each call as phase ``name`` of the ambient sink.

    Near-zero when uninstrumented: one thread-local read per call.  This is
    how packer entry points (``mcb8_pack`` & co.) appear in profiles without
    the packing layer knowing about telemetry plumbing.
    """

    def decorate(function: _F) -> _F:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            telemetry = getattr(_ACTIVE, "telemetry", None)
            if telemetry is None:
                return function(*args, **kwargs)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                telemetry.record_phase(name, start, perf_counter())

        return wrapper  # type: ignore[return-value]

    return decorate


# ------------------------------------------------------------------- spec form
#: Fields each telemetry ``type`` accepts besides ``type`` itself.
_SPEC_FIELDS: Dict[str, Tuple[str, ...]] = {
    "off": (),
    "stats": ("flight",),
    "tracing": ("max_spans", "flight"),
}


def _spec_integer(spec: Mapping[str, Any], field: str, kind: str) -> Optional[int]:
    value = spec.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigurationError(
            f"telemetry spec {kind!r} field {field!r} must be an integer, "
            f"got {value!r}"
        )
    return int(value)


def telemetry_spec(spec: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """Validate a telemetry spec and return its canonical form.

    ``{"type": "off"}`` is None (no sink).  ``stats`` is counters, gauges and
    phase-timer moments, O(instrument names) memory however long the run;
    ``tracing`` adds per-occurrence span events for the Chrome-trace
    exporter, at most ``max_spans`` of them (kept only when it is not
    :data:`DEFAULT_MAX_SPANS`).  Either may carry ``flight``, the ring
    capacity of a per-job flight recorder (:mod:`repro.obs.flight`), kept
    only when set.  Scenario specs store this form, so equal specs hash
    equally.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            "telemetry spec spec must be an object with a 'type' field, "
            f"got {type(spec).__name__}"
        )
    if "type" not in spec:
        raise ConfigurationError("telemetry spec spec needs a 'type' field")
    kind = spec["type"]
    fields = _SPEC_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigurationError(
            f"unknown telemetry spec type {kind!r}; known types: "
            f"{', '.join(_SPEC_FIELDS)}"
        )
    unknown = sorted(set(spec) - {"type", *fields})
    if unknown:
        raise ConfigurationError(
            f"telemetry spec {kind!r} has unknown fields: {', '.join(unknown)}"
        )
    if kind == "off":
        return None
    canonical: Dict[str, Any] = {"type": kind}
    max_spans = _spec_integer(spec, "max_spans", kind)
    if max_spans is not None and max_spans != DEFAULT_MAX_SPANS:
        if max_spans < 0:
            raise ConfigurationError(f"max_spans must be >= 0, got {max_spans}")
        canonical["max_spans"] = max_spans
    flight = _spec_integer(spec, "flight", kind)
    if flight is not None:
        if flight <= 0:
            raise ConfigurationError(
                f"flight recorder capacity must be a positive integer, got {flight}"
            )
        canonical["flight"] = flight
    return canonical


def as_telemetry(value: Any) -> Optional[Telemetry]:
    """Coerce a config field to a live sink (or None when disabled).

    Accepts None, a live :class:`Telemetry` (callers that want to read the
    sink afterwards pass their own), or a spec mapping
    (:func:`telemetry_spec`), from which a fresh sink is built.
    """
    if value is None or isinstance(value, Telemetry):
        return value
    spec = telemetry_spec(value)
    if spec is None:
        return None
    telemetry = Telemetry(
        capture_spans=spec["type"] == "tracing",
        max_spans=spec.get("max_spans", DEFAULT_MAX_SPANS),
    )
    if "flight" in spec:
        # Deferred: repro.core imports this module while it initialises, so
        # the flight recorder stays out of its module-scope import edges.
        from .flight import FlightRecorder

        telemetry.flight = FlightRecorder(spec["flight"])
    return telemetry
