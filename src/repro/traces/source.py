"""The :class:`JobSource` streaming protocol and its standard adapters.

A *job source* is a named, deterministic, re-iterable producer of an
**arrival-ordered** stream of :class:`~repro.core.job.JobSpec`s for a given
cluster.  Unlike :class:`~repro.traces.model.Workload` (a materialized
list), a source only promises an iterator — a million-job trace can be
generated, transformed, and simulated (via
:meth:`repro.core.engine.Simulator.run_stream`) without ever being resident
in memory at once.

The contract:

* ``jobs(cluster)`` yields specs with **non-decreasing submit times** and
  unique job ids; the simulation engine enforces both.
* Iterating twice yields the same stream (sources are pure descriptions;
  all randomness is seeded).
* ``to_dict()`` returns the canonical spec form when the source is
  **spec-expressible** (``spec_expressible`` is True); such dictionaries
  round-trip through :func:`trace_source_from_dict` and can appear in
  ``repro-dfrs run`` spec files via the campaign layer's ``generator`` and
  ``transform`` source types.  In-memory adapters (``WorkloadTraceSource``,
  ``CallableTraceSource``) are not spec-expressible: their ``key`` stands in
  for their content in hashes.

Adapters for every pre-existing workload path live here (Lublin, HPC2N-like,
SWF files, internal JSON traces, in-memory workloads, arbitrary callables,
and sequential splicing); the new synthetic models are in
:mod:`repro.traces.generators` and the composable trace surgery in
:mod:`repro.traces.transforms`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..core.cluster import PAPER_CLUSTER, Cluster
from ..core.job import JobSpec
from ..exceptions import ConfigurationError
from ..registry import Registry
from .hpc2n import HPC2N_CLUSTER, Hpc2nLikeTraceGenerator, records_to_jobspecs
from .io import TRACE_JSON_FORMAT, load_trace_json, trace_json_payload_to_workload
from .lublin import LublinWorkloadGenerator
from .model import Workload
from .swf import iter_swf_records, open_trace_text

if TYPE_CHECKING:  # circular at runtime: transforms imports this module
    from .transforms import TraceTransform

__all__ = [
    "require_finite_fields",
    "JobSource",
    "LublinTraceSource",
    "Hpc2nLikeTraceSource",
    "SwfTraceSource",
    "JsonTraceSource",
    "WorkloadTraceSource",
    "CallableTraceSource",
    "ConcatTraceSource",
    "register_trace_source",
    "trace_source_from_dict",
    "available_trace_sources",
    "load_trace_source",
]


def require_finite_fields(spec: Any) -> None:
    """Reject a NaN or infinite field of a spec dataclass, naming the field.

    Every comparison with NaN is false, so a ``value < 0`` range check alone
    lets NaN through to corrupt a trace (or fail on some job) mid-run.
    """
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(
                f"{spec.kind}: {field.name} must be finite, got {value!r}"
            )


class JobSource:
    """Abstract streaming producer of arrival-ordered job specs."""

    kind: str = "abstract"
    #: True when ``to_dict()`` round-trips through ``trace_source_from_dict``
    #: (i.e. the source can appear in a ``repro-dfrs run`` spec file).
    spec_expressible: bool = True
    #: True when the arrival-order promise rests on external *convention*
    #: (e.g. an SWF archive's sort order) rather than on construction.
    #: Consumers that would fail late on an unsorted stream (the streaming
    #: campaign executor) pre-check such sources with one cheap pass.
    #: Wrapper sources (transform chains, concat splices) propagate the flag
    #: from their bases.
    order_by_convention: bool = False

    def __post_init__(self) -> None:
        require_finite_fields(self)

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        """Yield the trace's specs in arrival order for ``cluster``."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dictionary (with a ``type`` field)."""
        raise NotImplementedError

    def default_name(self) -> str:
        """Workload name used when the source is materialized."""
        return self.kind

    def materialize(self, cluster: Cluster, *, name: Optional[str] = None) -> Workload:
        """Collect the full stream into a :class:`Workload`."""
        return Workload(name or self.default_name(), cluster, list(self.jobs(cluster)))

    def transformed(self, *steps: "TraceTransform") -> "JobSource":
        """This source with trace transforms chained on top (left to right)."""
        from .transforms import TransformedSource

        return TransformedSource(base=self, steps=tuple(steps))


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
TRACE_SOURCES: Registry[JobSource] = Registry("trace source", base=JobSource)
register_trace_source = TRACE_SOURCES.register
available_trace_sources = TRACE_SOURCES.available
trace_source_from_dict = TRACE_SOURCES.from_dict


# --------------------------------------------------------------------------- #
# Adapters over the existing workload paths                                    #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LublinTraceSource(JobSource):
    """One streaming Lublin–Feitelson synthetic trace (paper §IV-C)."""

    num_jobs: int = 150
    seed: int = 2010

    kind = "lublin"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_jobs < 1:
            raise ConfigurationError(f"num_jobs must be >= 1, got {self.num_jobs}")

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        return LublinWorkloadGenerator(cluster).iter_jobs(self.num_jobs, seed=self.seed)

    def default_name(self) -> str:
        return f"lublin-seed{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "num_jobs": self.num_jobs, "seed": self.seed}


@dataclass(frozen=True)
class Hpc2nLikeTraceSource(JobSource):
    """One streaming HPC2N-like synthetic trace (the paper's real-world mimic)."""

    weeks: int = 1
    jobs_per_week: int = 400
    seed: int = 2010

    kind = "hpc2n-like"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.weeks < 1:
            raise ConfigurationError(f"weeks must be >= 1, got {self.weeks}")
        if self.jobs_per_week < 1:
            raise ConfigurationError(
                f"jobs_per_week must be >= 1, got {self.jobs_per_week}"
            )

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        generator = Hpc2nLikeTraceGenerator(cluster, jobs_per_week=self.jobs_per_week)
        return records_to_jobspecs(
            generator.iter_records(self.weeks, seed=self.seed), cluster
        )

    def default_name(self) -> str:
        return f"hpc2n-like-seed{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "weeks": self.weeks,
            "jobs_per_week": self.jobs_per_week,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SwfTraceSource(JobSource):
    """Stream a Standard Workload Format file (optionally ``.gz``) from disk.

    Records are converted one at a time with the paper's HPC2N preprocessing
    (:func:`repro.traces.hpc2n.records_to_jobspecs`), so multi-gigabyte
    archive traces never need to be resident.  Archive traces are submit-
    ordered by convention; a stray out-of-order record is reported by the
    engine's streaming intake, and :meth:`materialize` sorts regardless.
    """

    path: str = ""

    kind = "swf"
    #: Archive files are submit-ordered by convention, not construction.
    order_by_convention = True

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("SwfTraceSource needs a trace file path")

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        return records_to_jobspecs(iter_swf_records(self.path), cluster)

    def default_name(self) -> str:
        stem = Path(self.path).name
        for suffix in (".gz", ".swf"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        return stem or "swf"

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "path": self.path}


@dataclass(frozen=True)
class JsonTraceSource(JobSource):
    """Stream a trace stored in the internal JSON format (see ``traces.io``)."""

    path: str = ""

    kind = "json"

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("JsonTraceSource needs a trace file path")

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        workload = load_trace_json(self.path, cluster=cluster)
        return iter(workload.jobs)

    def default_name(self) -> str:
        return Path(self.path).stem or "json"

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "path": self.path}


@dataclass(frozen=True)
class WorkloadTraceSource(JobSource):
    """Adapter over an in-memory :class:`Workload` (not spec-expressible)."""

    workload: Workload = None  # type: ignore[assignment]

    kind = "workload"
    spec_expressible = False

    def __post_init__(self) -> None:
        if self.workload is None:
            raise ConfigurationError("WorkloadTraceSource needs a workload")

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        # Workload sorts its jobs by (submit_time, job_id) on construction,
        # so the stream is arrival-ordered by construction.
        return iter(self.workload.jobs)

    def default_name(self) -> str:
        return self.workload.name

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "key": self.workload.name}


@dataclass(frozen=True)
class CallableTraceSource(JobSource):
    """Arbitrary user-supplied stream factory (not spec-expressible).

    ``factory`` receives the cluster and returns an iterable of specs.  The
    ``key`` string stands in for the factory in spec dictionaries and hashes,
    mirroring :class:`repro.campaign.scenario.CustomSource`.
    """

    factory: Callable[[Cluster], Iterable[JobSpec]] = None  # type: ignore[assignment]
    key: str = "callable"

    kind = "callable"
    spec_expressible = False

    def __post_init__(self) -> None:
        if self.factory is None:
            raise ConfigurationError("CallableTraceSource needs a factory callable")

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        return iter(self.factory(cluster))

    def default_name(self) -> str:
        return self.key

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "key": self.key}


@dataclass(frozen=True)
class ConcatTraceSource(JobSource):
    """Splice several sources into one sequential stream.

    Each subsequent source is rebased to start ``gap_seconds`` after the
    previous source's last submission, and job ids are renumbered from zero,
    so the result is a single valid arrival-ordered trace.  Splicing is
    fully streaming: only one upstream spec is held at a time.
    """

    sources: Tuple[JobSource, ...] = ()
    gap_seconds: float = 0.0

    kind = "concat"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sources:
            raise ConfigurationError("ConcatTraceSource needs at least one source")
        if self.gap_seconds < 0:
            raise ConfigurationError(
                f"gap_seconds must be >= 0, got {self.gap_seconds}"
            )
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(
            self,
            "spec_expressible",
            all(source.spec_expressible for source in self.sources),
        )
        object.__setattr__(
            self,
            "order_by_convention",
            any(source.order_by_convention for source in self.sources),
        )

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        def _stream() -> Iterator[JobSpec]:
            job_id = 0
            offset = 0.0
            for source in self.sources:
                base: Optional[float] = None
                last = 0.0
                for spec in source.jobs(cluster):
                    if base is None:
                        base = spec.submit_time
                    submit = offset + (spec.submit_time - base)
                    last = submit
                    yield replace(spec, job_id=job_id, submit_time=submit)
                    job_id += 1
                if base is not None:
                    offset = last + self.gap_seconds

        return _stream()

    def default_name(self) -> str:
        return "+".join(source.default_name() for source in self.sources)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "sources": [source.to_dict() for source in self.sources],
            "gap_seconds": self.gap_seconds,
        }


def _concat_from_spec(
    sources: Iterable[Mapping[str, Any]] = (), gap_seconds: float = 0.0
) -> ConcatTraceSource:
    return ConcatTraceSource(
        sources=tuple(trace_source_from_dict(spec) for spec in sources),
        gap_seconds=float(gap_seconds),
    )


register_trace_source("lublin", LublinTraceSource)
register_trace_source("hpc2n-like", Hpc2nLikeTraceSource)
register_trace_source("swf", SwfTraceSource)
register_trace_source("json", JsonTraceSource)
register_trace_source("concat", _concat_from_spec)


def load_trace_source(path_text: Union[str, Path]) -> Tuple[JobSource, Cluster]:
    """Resolve a trace path to ``(JobSource, default_cluster)``.

    Accepts SWF files (``.swf``/``.swf.gz``), internal JSON traces (the
    ``repro-dfrs-trace-v1`` format), and trace-source spec dictionaries
    (``{"type": ...}`` JSON files, e.g. a transform chain).  JSON files are
    read and parsed exactly once — internal-format payloads are turned into
    an in-memory source directly instead of being re-read from disk, so an
    internal trace is resident whole, where SWF files and specs stream.
    """
    path = Path(path_text)
    if not path.exists():
        raise ConfigurationError(f"trace file not found: {path}")
    name = path.name.lower()
    if name.endswith((".swf", ".swf.gz")):
        return SwfTraceSource(path=str(path)), HPC2N_CLUSTER
    if not name.endswith((".json", ".json.gz")):
        raise ConfigurationError(
            f"cannot interpret {path}: expected .swf[.gz], .json[.gz], or a "
            "trace-source spec JSON file"
        )
    with open_trace_text(path, "rt") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and payload.get("format") == TRACE_JSON_FORMAT:
        workload = trace_json_payload_to_workload(
            payload, origin=str(path), name_fallback=path.stem
        )
        return WorkloadTraceSource(workload=workload), workload.cluster
    if isinstance(payload, dict):
        return trace_source_from_dict(payload), PAPER_CLUSTER
    raise ConfigurationError(
        f"{path}: expected a trace-source spec object, got {type(payload).__name__}"
    )
