"""Composable, spec-expressible trace transforms.

A :class:`TraceTransform` rewrites one arrival-ordered spec stream into
another.  Transforms chain over any :class:`~repro.traces.source.JobSource`
through :class:`TransformedSource` (spec type ``"transform"``), so trace
surgery that previously required ad-hoc driver code is now declarative::

    {
      "type": "transform",
      "base": {"type": "downey", "num_jobs": 5000, "seed": 7},
      "steps": [
        {"type": "time-window", "start": 0, "end": 604800},
        {"type": "rescale-load", "target_load": 0.7},
        {"type": "perturb", "runtime_factor": 0.1, "seed": 1}
      ]
    }

Contract (mirrors the source contract):

* input and output streams are arrival-ordered; every transform preserves
  that invariant (buffering transforms re-sort before emitting);
* transforms are deterministic — all randomness comes from an explicit
  ``seed`` field, so a transform chain is a pure description;
* ``streaming`` is True when the transform holds O(1) specs at a time.
  ``rescale-load`` and ``bootstrap`` necessarily buffer the stream (both
  need whole-trace statistics) and are marked ``streaming = False``; a
  chain is bounded-memory iff every step is streaming.

Sequential splicing of several traces is a *source* operation —
see :class:`repro.traces.source.ConcatTraceSource` (spec type ``"concat"``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..core.cluster import Cluster
from ..core.job import JobSpec
from ..exceptions import ConfigurationError, WorkloadError
from ..registry import Registry
from .model import Workload, offered_load
from .source import (
    JobSource,
    register_trace_source,
    require_finite_fields,
    trace_source_from_dict,
)

__all__ = [
    "TraceTransform",
    "TimeWindow",
    "ScaleInterarrival",
    "rescale_to_load",
    "scale_to_load",
    "RescaleLoad",
    "Perturb",
    "FilterJobs",
    "PredicateFilter",
    "Head",
    "BootstrapResample",
    "TransformedSource",
    "register_transform",
    "transform_from_dict",
    "available_transforms",
]


class TraceTransform:
    """Abstract rewrite of one arrival-ordered spec stream into another."""

    kind: str = "abstract"
    #: True when the transform holds O(1) specs at a time.
    streaming: bool = True
    #: True when ``to_dict()`` round-trips through ``transform_from_dict``.
    spec_expressible: bool = True

    def __post_init__(self) -> None:
        require_finite_fields(self)

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
TRANSFORMS: Registry[TraceTransform] = Registry("trace transform", base=TraceTransform)
register_transform = TRANSFORMS.register
available_transforms = TRANSFORMS.available
transform_from_dict = TRANSFORMS.from_dict


def _sorted_buffer(stream: Iterator[JobSpec]) -> List[JobSpec]:
    """Materialize a stream, restoring arrival order defensively."""
    buffer = list(stream)
    buffer.sort(key=lambda spec: (spec.submit_time, spec.job_id))
    return buffer


# --------------------------------------------------------------------------- #
# Streaming transforms                                                         #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TimeWindow(TraceTransform):
    """Keep only jobs submitted in ``[start, end)``, optionally rebased.

    Relies on arrival order to stop reading the upstream as soon as the
    window has passed, so slicing a week out of a year-long trace touches
    only a week of specs (plus the prefix before ``start``).
    """

    start: float = 0.0
    end: Optional[float] = None
    rebase: bool = True

    kind = "time-window"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ConfigurationError("end must be > start")

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        def _windowed() -> Iterator[JobSpec]:
            for spec in stream:
                if spec.submit_time < self.start:
                    continue
                if self.end is not None and spec.submit_time >= self.end:
                    break
                if self.rebase:
                    yield replace(spec, submit_time=spec.submit_time - self.start)
                else:
                    yield spec

        return _windowed()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "start": self.start,
            "end": self.end,
            "rebase": self.rebase,
        }


@dataclass(frozen=True)
class ScaleInterarrival(TraceTransform):
    """Multiply every inter-arrival gap by a constant factor (streaming)."""

    factor: float = 1.0

    kind = "scale-interarrival"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 0:
            raise ConfigurationError(f"factor must be > 0, got {self.factor}")

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        def _scaled() -> Iterator[JobSpec]:
            base: Optional[float] = None
            for spec in stream:
                if base is None:
                    base = spec.submit_time
                yield replace(
                    spec,
                    submit_time=base + (spec.submit_time - base) * self.factor,
                )

        return _scaled()

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "factor": self.factor}


def rescale_to_load(
    name: str, current_load: float, target_load: float
) -> Tuple[ScaleInterarrival, str]:
    """The one offered-load rescale of the paper (§IV-C).

    The offered load is inversely proportional to the submission span, so a
    trace measured at ``current_load`` reaches ``target_load`` when every
    inter-arrival gap is multiplied by ``current_load / target_load``; the
    job mix (sizes, runtimes, CPU needs, memory requirements) is untouched.
    Returns that :class:`ScaleInterarrival` step and the name of the
    rescaled instance.  :func:`scale_to_load`, the ``rescale-load``
    transform and the campaign executor's ``load`` axis all come through
    here.
    """
    if not (math.isfinite(target_load) and target_load > 0):
        raise ConfigurationError(
            "target_load / load axis value must be finite and > 0, "
            f"got {target_load!r}"
        )
    # 0.0 is an empty trace, inf one whose jobs are all submitted at once.
    if not 0.0 < current_load < math.inf:
        raise WorkloadError(
            f"{name}: degenerate offered load {current_load!r}; rescaling "
            "needs at least two jobs submitted at different times"
        )
    step = ScaleInterarrival(factor=current_load / target_load)
    return step, f"{name}-load{target_load:.1f}"


def scale_to_load(workload: Workload, target_load: float) -> Workload:
    """Workload with inter-arrival times scaled to reach ``target_load``.

    The paper turns each generated trace into nine traces with identical job
    mixes but offered loads 0.1 … 0.9 this way; only submission times are
    stretched or compressed.
    """
    step, name = rescale_to_load(workload.name, workload.load(), target_load)
    jobs = step.apply(iter(workload.jobs), workload.cluster)
    return Workload(name, workload.cluster, list(jobs))


@dataclass(frozen=True)
class FilterJobs(TraceTransform):
    """Keep only jobs inside the given width/runtime/memory bounds."""

    min_tasks: Optional[int] = None
    max_tasks: Optional[int] = None
    min_runtime_seconds: Optional[float] = None
    max_runtime_seconds: Optional[float] = None
    max_memory_fraction: Optional[float] = None

    kind = "filter"

    def _keep(self, spec: JobSpec) -> bool:
        if self.min_tasks is not None and spec.num_tasks < self.min_tasks:
            return False
        if self.max_tasks is not None and spec.num_tasks > self.max_tasks:
            return False
        if (
            self.min_runtime_seconds is not None
            and spec.execution_time < self.min_runtime_seconds
        ):
            return False
        if (
            self.max_runtime_seconds is not None
            and spec.execution_time > self.max_runtime_seconds
        ):
            return False
        if (
            self.max_memory_fraction is not None
            and spec.mem_requirement > self.max_memory_fraction
        ):
            return False
        return True

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        return (spec for spec in stream if self._keep(spec))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "min_tasks": self.min_tasks,
            "max_tasks": self.max_tasks,
            "min_runtime_seconds": self.min_runtime_seconds,
            "max_runtime_seconds": self.max_runtime_seconds,
            "max_memory_fraction": self.max_memory_fraction,
        }


@dataclass(frozen=True)
class PredicateFilter(TraceTransform):
    """Filter by an arbitrary predicate (code-only, not spec-expressible).

    The ``key`` string stands in for the predicate in spec dictionaries,
    mirroring the other non-expressible escape hatches.
    """

    predicate: Callable[[JobSpec], bool] = None  # type: ignore[assignment]
    key: str = "predicate"

    kind = "predicate-filter"
    spec_expressible = False

    def __post_init__(self) -> None:
        if self.predicate is None:
            raise ConfigurationError("PredicateFilter needs a predicate callable")

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        return (spec for spec in stream if self.predicate(spec))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "key": self.key}


@dataclass(frozen=True)
class Head(TraceTransform):
    """Keep only the first ``count`` jobs of the stream."""

    count: int = 1

    kind = "head"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        return itertools.islice(stream, self.count)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "count": self.count}


@dataclass(frozen=True)
class Perturb(TraceTransform):
    """Seeded multiplicative jitter on runtimes and/or widths (streaming).

    Runtimes are multiplied by ``lognormal(0, runtime_factor)`` and widths by
    ``lognormal(0, width_factor)`` (rounded, clamped to ``[1, num_nodes]``).
    Submission times are untouched, so arrival order is trivially preserved,
    and the RNG is drawn twice per job in a fixed order, so a given seed
    always produces the same perturbation regardless of which factors are
    enabled.
    """

    runtime_factor: float = 0.0
    width_factor: float = 0.0
    seed: int = 0

    kind = "perturb"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.runtime_factor < 0 or self.width_factor < 0:
            raise ConfigurationError("perturbation factors must be >= 0")

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        def _perturbed() -> Iterator[JobSpec]:
            rng = np.random.default_rng(self.seed)
            for spec in stream:
                runtime_mult = float(rng.lognormal(0.0, self.runtime_factor))
                width_mult = float(rng.lognormal(0.0, self.width_factor))
                runtime = max(1.0, spec.execution_time * runtime_mult)
                width = int(round(spec.num_tasks * width_mult))
                width = min(max(width, 1), cluster.num_nodes)
                yield replace(spec, execution_time=runtime, num_tasks=width)

        return _perturbed()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "runtime_factor": self.runtime_factor,
            "width_factor": self.width_factor,
            "seed": self.seed,
        }


# --------------------------------------------------------------------------- #
# Buffering transforms (whole-trace statistics needed)                         #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RescaleLoad(TraceTransform):
    """Rescale inter-arrival gaps so the trace reaches a target offered load.

    :func:`rescale_to_load` lifted to the transform chain.  Buffers the
    stream: the offered load needs the whole trace's demand and span before
    the first job can be emitted.
    """

    target_load: float = 0.0

    kind = "rescale-load"
    streaming = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target_load <= 0:
            raise ConfigurationError(
                f"target_load must be > 0, got {self.target_load}"
            )

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        def _rescaled() -> Iterator[JobSpec]:
            buffer = _sorted_buffer(stream)
            step, _ = rescale_to_load(
                self.kind, offered_load(buffer, cluster), self.target_load
            )
            yield from step.apply(iter(buffer), cluster)

        return _rescaled()

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "target_load": self.target_load}


@dataclass(frozen=True)
class BootstrapResample(TraceTransform):
    """Bootstrap-resample jobs with replacement (seeded, buffering).

    Draws ``num_jobs`` jobs (default: the input size) uniformly with
    replacement, keeps their original submission times, re-sorts into
    arrival order, and renumbers ids from zero so duplicated draws stay a
    valid workload.  The standard tool for confidence intervals on
    trace-driven metrics.
    """

    num_jobs: Optional[int] = None
    seed: int = 0

    kind = "bootstrap"
    streaming = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_jobs is not None and self.num_jobs < 1:
            raise ConfigurationError(f"num_jobs must be >= 1, got {self.num_jobs}")

    def apply(self, stream: Iterator[JobSpec], cluster: Cluster) -> Iterator[JobSpec]:
        def _resampled() -> Iterator[JobSpec]:
            buffer = _sorted_buffer(stream)
            if not buffer:
                return
            rng = np.random.default_rng(self.seed)
            count = self.num_jobs if self.num_jobs is not None else len(buffer)
            draws = sorted(
                int(index) for index in rng.integers(0, len(buffer), size=count)
            )
            for job_id, index in enumerate(draws):
                yield replace(buffer[index], job_id=job_id)

        return _resampled()

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "num_jobs": self.num_jobs, "seed": self.seed}


# --------------------------------------------------------------------------- #
# The transformed source                                                       #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TransformedSource(JobSource):
    """A :class:`JobSource` with a transform chain applied left to right."""

    base: JobSource = None  # type: ignore[assignment]
    steps: Tuple[TraceTransform, ...] = ()

    kind = "transform"

    def __post_init__(self) -> None:
        if self.base is None:
            raise ConfigurationError("TransformedSource needs a base source")
        if not self.steps:
            raise ConfigurationError(
                "TransformedSource needs at least one transform step"
            )
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(
            self,
            "spec_expressible",
            self.base.spec_expressible
            and all(step.spec_expressible for step in self.steps),
        )
        # The chain's output order is only as trustworthy as its base's.
        object.__setattr__(
            self, "order_by_convention", self.base.order_by_convention
        )

    @property
    def streaming(self) -> bool:
        """True when the whole chain holds O(1) specs at a time."""
        return all(step.streaming for step in self.steps)

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        stream = self.base.jobs(cluster)
        for step in self.steps:
            stream = step.apply(stream, cluster)
        return stream

    def default_name(self) -> str:
        suffix = "+".join(step.kind for step in self.steps)
        return f"{self.base.default_name()}+{suffix}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "base": self.base.to_dict(),
            "steps": [step.to_dict() for step in self.steps],
        }


def _transformed_from_spec(
    base: Optional[Mapping[str, Any]] = None,
    steps: "tuple | list" = (),
) -> TransformedSource:
    if base is None:
        raise ConfigurationError("transform source spec needs a 'base' source")
    return TransformedSource(
        base=trace_source_from_dict(base),
        steps=tuple(transform_from_dict(step) for step in steps),
    )


register_transform("time-window", TimeWindow)
register_transform("scale-interarrival", ScaleInterarrival)
register_transform("rescale-load", RescaleLoad)
register_transform("perturb", Perturb)
register_transform("filter", FilterJobs)
register_transform("head", Head)
register_transform("bootstrap", BootstrapResample)
register_trace_source("transform", _transformed_from_spec)
