"""Scenario specification: the declarative half of the campaign layer.

A :class:`Scenario` is a frozen description of one study: a workload source,
the cluster it targets, the algorithm set (possibly templated on sweep-axis
values), the rescheduling penalty, the sweep axes, the metric collectors, and
the engine options.  Scenarios are pure data — they can be built in code, be
loaded from a JSON/TOML spec file (:mod:`repro.campaign.spec`), and be hashed
stably across processes (:func:`scenario_hash`), which is what keys the
executor's resumable run cache.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import re
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..core.cluster import PAPER_CLUSTER, Cluster
from ..core.engine import SimulationConfig
from ..core.penalties import ReschedulingPenaltyModel
from ..exceptions import ConfigurationError
from ..platform import Platform, node_event_source_from_dict, platform_from_dict
from ..registry import Registry, content_fingerprint
from ..traces import (
    Hpc2nLikeTraceSource,
    JobSource,
    LublinTraceSource,
    SwfTraceSource,
    TransformedSource,
    Workload,
    parse_swf,
    swf_to_dfrs_jobs,
    trace_source_from_dict,
)
from ..traces.source import require_finite_fields

__all__ = [
    "WorkloadSource",
    "LublinSource",
    "Hpc2nLikeSource",
    "SwfSource",
    "CustomSource",
    "GeneratorSource",
    "TransformSource",
    "CollectorSpec",
    "Cell",
    "Scenario",
    "payload_hash",
    "scenario_hash",
    "scenario_from_dict",
    "source_from_dict",
]

# --------------------------------------------------------------------------- #
# Workload sources                                                             #
# --------------------------------------------------------------------------- #
class WorkloadSource:
    """A named, deterministic producer of workload instances.

    Sources generate the *raw* (unscaled) instances of a scenario once per
    campaign run; per-cell offered-load scaling (the ``load`` sweep axis) is
    applied by the executor on top, so every source composes with load sweeps
    for free.

    ``spec_expressible`` records whether the source can be written in a
    ``repro-dfrs run`` spec file: True for :class:`LublinSource`,
    :class:`Hpc2nLikeSource`, :class:`SwfSource`, :class:`GeneratorSource`,
    and :class:`TransformSource`; False for :class:`CustomSource`, whose
    factory callable only exists in code (:func:`source_from_dict` points at
    the ``generator``/``transform`` types as the declarative alternatives).
    """

    kind: str = "abstract"
    spec_expressible: bool = True

    def workloads(self, cluster: Cluster) -> List[Workload]:
        """The materialized instances: by default the collected
        :meth:`streaming_sources`, so the two executions cannot drift apart;
        sources that only exist materialized (``swf``, ``custom``) override it."""
        sources = self.streaming_sources(cluster)
        if sources is None:
            raise NotImplementedError
        return [source.materialize(cluster) for source in sources]

    def streaming_sources(self, cluster: Cluster) -> Optional[List[Any]]:
        """Per-instance :class:`repro.traces.JobSource` streams, or ``None``.

        The streaming campaign executor feeds these straight into
        :meth:`repro.core.engine.Simulator.run_stream`, so sources that can
        express their instances as arrival-ordered lazy streams should
        return one :class:`~repro.traces.JobSource` per instance.
        ``None`` (the default) means the source only exists materialized and
        cannot back a ``--streaming-metrics`` campaign.
        """
        return None

    def materialize_stream_reason(self) -> Optional[str]:
        """Why a streaming campaign must fall back to the materialized path.

        ``None`` (the default) means no fallback: the executor either
        streams the source (``streaming_sources``) or rejects it with a
        hard error.  A reason string marks a *configuration* of an otherwise
        streamable source that cannot stream (today: ``swf`` with
        ``segment_seconds``); the executor then warns with the reason and
        runs the materialized path instead.
        """
        return None

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError


class _SeededReplicas(WorkloadSource):
    """Seeded replicas of one :class:`~repro.traces.JobSource` model.

    Instance ``i`` is ``_replica(seed_base + i)``, whichever process builds
    it — how one spec describes several independent traces of a synthetic
    model.  The dataclass field named by ``_count_field`` says how many.
    """

    seed_base: int
    _count_field: str

    def __post_init__(self) -> None:
        require_finite_fields(self)
        count = getattr(self, self._count_field)
        if count < 1:
            raise ConfigurationError(
                f"{self._count_field} must be >= 1, got {count}"
            )
        # Build instance 0 eagerly so bad models/options fail at spec-load
        # time, not mid-campaign.
        self._replica(self.seed_base)

    def _replica(self, seed: int) -> JobSource:
        raise NotImplementedError

    def streaming_sources(self, cluster: Cluster) -> List[Any]:
        count = getattr(self, self._count_field)
        return [self._replica(self.seed_base + index) for index in range(count)]


@dataclass(frozen=True)
class LublinSource(_SeededReplicas):
    """Synthetic traces from the Lublin-Feitelson model (paper §IV-C)."""

    num_traces: int = 3
    num_jobs: int = 150
    seed_base: int = 2010

    kind = "lublin"
    _count_field = "num_traces"

    def workloads(self, cluster: Cluster) -> List[Workload]:
        # The same streams, under the paper's instance names.
        return [
            source.materialize(cluster, name=f"lublin-{index:03d}")
            for index, source in enumerate(self.streaming_sources(cluster))
        ]

    def _replica(self, seed: int) -> JobSource:
        return LublinTraceSource(num_jobs=self.num_jobs, seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "num_traces": self.num_traces,
            "num_jobs": self.num_jobs,
            "seed_base": self.seed_base,
        }


@dataclass(frozen=True)
class Hpc2nLikeSource(_SeededReplicas):
    """HPC2N-like synthetic 1-week segments (the paper's real-world column).

    The trace mimics the HPC2N machine, so scenarios reproducing the paper
    should set the scenario cluster to
    :data:`repro.traces.hpc2n.HPC2N_CLUSTER` (the ``real`` column of
    :func:`~repro.campaign.studies.paper_scenarios` does); the source
    honours whatever cluster the scenario declares.
    """

    weeks: int = 2
    jobs_per_week: int = 400
    seed_base: int = 2010

    kind = "hpc2n-like"
    _count_field = "weeks"

    def _replica(self, seed: int) -> JobSource:
        return Hpc2nLikeTraceSource(
            weeks=1, jobs_per_week=self.jobs_per_week, seed=seed
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "weeks": self.weeks,
            "jobs_per_week": self.jobs_per_week,
            "seed_base": self.seed_base,
        }


@dataclass(frozen=True)
class SwfSource(WorkloadSource):
    """Jobs parsed from a Standard Workload Format trace file.

    With ``segment_seconds`` set, the trace is split into consecutive
    fixed-duration segments (the paper's 1-week HPC2N split), each of which
    becomes one instance of the scenario.
    """

    path: str = ""
    segment_seconds: Optional[float] = None

    kind = "swf"

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not self.path:
            raise ConfigurationError("SwfSource needs a trace file path")

    def workloads(self, cluster: Cluster) -> List[Workload]:
        workload = swf_to_dfrs_jobs(parse_swf(self.path), cluster)
        if self.segment_seconds is None:
            return [workload]
        return workload.segments(self.segment_seconds)

    def streaming_sources(self, cluster: Cluster) -> Optional[List[Any]]:
        if self.segment_seconds is not None:
            # Fixed-duration segmentation needs the whole trace split into
            # separate instances; keep that path materialized.
            return None
        return [SwfTraceSource(path=self.path)]

    def materialize_stream_reason(self) -> Optional[str]:
        if self.segment_seconds is None:
            return None
        return (
            "an 'swf' source with segment_seconds set cannot stream "
            "(fixed-duration segmentation needs the materialized instance "
            "split)"
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": self.kind,
            "path": self.path,
            "segment_seconds": self.segment_seconds,
        }
        fingerprint = content_fingerprint(self)
        if fingerprint is not None:
            data["content"] = fingerprint
        return data


@dataclass(frozen=True)
class CustomSource(WorkloadSource):
    """Arbitrary user-supplied workload factory.

    ``factory`` receives the scenario cluster and returns the instance list.
    The ``key`` string stands in for the factory in the scenario hash, so two
    custom sources hash equal iff their keys (and the rest of the scenario)
    are equal — callers are responsible for keying distinct generators
    distinctly.  Custom sources cannot be expressed in spec files.
    """

    factory: Callable[[Cluster], List[Workload]] = None  # type: ignore[assignment]
    key: str = "custom"

    kind = "custom"
    spec_expressible = False

    def __post_init__(self) -> None:
        if self.factory is None:
            raise ConfigurationError("CustomSource needs a factory callable")

    def workloads(self, cluster: Cluster) -> List[Workload]:
        return list(self.factory(cluster))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "key": self.key}


@dataclass(frozen=True)
class GeneratorSource(_SeededReplicas):
    """Instances drawn from a registered :mod:`repro.traces` source model.

    ``model`` names any spec-expressible trace source type (``"downey"``,
    ``"diurnal-poisson"``, ``"lublin"``, ...; see
    :func:`repro.traces.available_trace_sources`) and ``options`` carries its
    constructor options verbatim — except ``seed``, which this source owns:
    instance ``i`` is built with ``seed = seed_base + i``, which is how one
    spec file describes several independent replicas of a synthetic model.
    """

    model: str = ""
    instances: int = 1
    seed_base: int = 2010
    options: Tuple[Tuple[str, Any], ...] = ()

    kind = "generator"
    _count_field = "instances"

    def __post_init__(self) -> None:
        if not self.model:
            raise ConfigurationError("GeneratorSource needs a 'model' name")
        options = self.options
        if isinstance(options, Mapping):
            options = tuple(sorted(options.items()))
        object.__setattr__(self, "options", tuple(options))
        if "seed" in dict(self.options):
            raise ConfigurationError(
                "generator options must not set 'seed'; use 'seed_base' "
                "(instance i runs with seed_base + i)"
            )
        if "type" in dict(self.options):
            raise ConfigurationError(
                "generator options must not set 'type'; 'model' names the "
                "trace source type"
            )
        super().__post_init__()

    def _replica(self, seed: int) -> JobSource:
        return trace_source_from_dict(
            {"type": self.model, "seed": seed, **dict(self.options)}
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "model": self.model,
            "instances": self.instances,
            "seed_base": self.seed_base,
            "options": dict(self.options),
        }


@dataclass(frozen=True)
class TransformSource(WorkloadSource):
    """A :mod:`repro.traces` transform chain as a scenario workload source.

    Wraps a spec-expressible
    :class:`~repro.traces.transforms.TransformedSource`; the spec form is the
    chain's own dictionary, e.g.::

        {"type": "transform",
         "base": {"type": "diurnal-poisson", "num_jobs": 2000, "seed": 7},
         "steps": [{"type": "rescale-load", "target_load": 0.7}]}

    Only chains are accepted — their spec ``type`` is ``"transform"``, which
    is exactly what this source's round-trip dispatches on (a bare model
    belongs in :class:`GeneratorSource` instead; a bare model with no steps
    would serialise under its own type name and not round-trip here).  The
    chain produces one instance; sweep axes (``load`` included) compose on
    top exactly as with every other source.
    """

    source: Any = None  # a repro.traces.TransformedSource

    kind = "transform"

    def __post_init__(self) -> None:
        if not isinstance(self.source, TransformedSource):
            raise ConfigurationError(
                "TransformSource needs a repro.traces.TransformedSource "
                "(a transform chain); for a bare generator model use "
                "GeneratorSource instead"
            )
        if not self.source.spec_expressible:
            raise ConfigurationError(
                "the transform chain is not spec-expressible (it contains a "
                "code-only source or step) and cannot back a TransformSource; "
                "wrap it with CustomSource in code instead"
            )

    def streaming_sources(self, cluster: Cluster) -> Optional[List[Any]]:
        return [self.source]

    def to_dict(self) -> Dict[str, Any]:
        return self.source.to_dict()


def _transform_source_from_spec(**payload: Any) -> TransformSource:
    return TransformSource(
        source=trace_source_from_dict({"type": "transform", **payload})
    )


def _custom_source_from_spec(**payload: Any) -> WorkloadSource:
    raise ConfigurationError(
        "workload source type 'custom' is not spec-expressible (its "
        "factory is a Python callable); build the scenario in code, or "
        "describe the workload declaratively with the 'generator' or "
        "'transform' source types (see repro.traces)"
    )


# The SWF ``content`` fingerprint is derived state (see SwfSource.to_dict),
# not a constructor argument.
SOURCES: Registry[WorkloadSource] = Registry(
    "workload source", base=WorkloadSource, derived_keys=("content",)
)
source_from_dict = SOURCES.from_dict

SOURCES.register("lublin", LublinSource)
SOURCES.register("hpc2n-like", Hpc2nLikeSource)
SOURCES.register("swf", SwfSource)
SOURCES.register("generator", GeneratorSource)
SOURCES.register("transform", _transform_source_from_spec)
SOURCES.register("custom", _custom_source_from_spec)


# --------------------------------------------------------------------------- #
# Collector specs and sweep cells                                              #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CollectorSpec:
    """One metric collector requested by name, with optional constructor options.

    Spec forms: a bare name (``"stretch"``) or a mapping with options, e.g.
    ``{"name": "slo", "options": {"slo_factor": 5}}`` or ``{"name":
    "goodput", "options": {"window_seconds": 3600}}`` — see
    :func:`repro.campaign.collectors.available_collectors` for the registry.
    """

    name: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(
        cls, spec: Union[str, "CollectorSpec", Mapping[str, Any]]
    ) -> "CollectorSpec":
        """Coerce a string / mapping / spec into a canonical CollectorSpec."""
        if isinstance(spec, CollectorSpec):
            return spec
        if isinstance(spec, str):
            return cls(name=spec)
        if isinstance(spec, Mapping):
            name = spec.get("name")
            if not name:
                raise ConfigurationError("collector spec mapping needs a 'name'")
            options = spec.get("options", {})
            return cls(name=name, options=tuple(sorted(options.items())))
        raise ConfigurationError(f"cannot interpret collector spec {spec!r}")

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "options": self.options_dict()}


@dataclass(frozen=True)
class Cell:
    """One point of a scenario's sweep grid."""

    index: int
    params: Tuple[Tuple[str, Any], ...] = ()

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


# --------------------------------------------------------------------------- #
# Sweep templating                                                             #
# --------------------------------------------------------------------------- #
_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _template_axes(value: Any) -> set:
    """Sweep-axis names referenced by ``{axis}`` placeholders in a spec."""
    if isinstance(value, str):
        return set(_PLACEHOLDER.findall(value))
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return set().union(*map(_template_axes, value))
    return set()


def _substitute_templates(value: Any, params: Mapping[str, Any], name: str) -> Any:
    """Fill ``{axis}`` placeholders in a ``name`` spec with cell parameters.

    A string that *is* a single placeholder (``"{mtbf}"``) is replaced by the
    raw axis value, so numeric sweep values stay numbers; placeholders inside
    longer strings are formatted textually.
    """
    if isinstance(value, str):
        if "{" not in value:
            return value
        whole = _PLACEHOLDER.fullmatch(value)
        try:
            return params[whole.group(1)] if whole else value.format(**params)
        except (KeyError, IndexError, ValueError) as error:
            raise ConfigurationError(
                f"{name} template {value!r} cannot be formatted with cell "
                f"parameters {dict(params)!r}: {error}"
            ) from None
    if isinstance(value, Mapping):
        return {
            key: _substitute_templates(item, params, name)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_substitute_templates(item, params, name) for item in value]
    return value


def _build_platform(spec: Any) -> Platform:
    return spec if isinstance(spec, Platform) else platform_from_dict(spec)


_MODEL_KEYS = ("overhead", "execution_time")


def _build_models(spec: Mapping[str, Any]) -> Tuple[Any, Any]:
    """Build the ``(overhead, execution_time)`` models of one cell.

    Default models (``none`` / ``exact``) come back as ``None`` — the
    engine's byte-identical fast path.
    """
    # Imported on first use, like in ``_init_models``: a model-free campaign
    # never loads ``repro.models``.
    from ..models import execution_time_model_from_dict, overhead_model_from_dict

    overhead, execution = (spec.get(key) for key in _MODEL_KEYS)
    if overhead is not None:
        overhead = overhead_model_from_dict(overhead)
    if execution is not None:
        execution = execution_time_model_from_dict(execution)
    return (
        None if overhead is None or overhead.kind == "none" else overhead,
        None if execution is None or execution.kind == "exact" else execution,
    )


# --------------------------------------------------------------------------- #
# Scenario                                                                     #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """Frozen, declarative description of one experimental study.

    ``sweep`` maps axis names to value tuples; cells are the cross-product in
    axis order.  The ``load`` axis is special-cased by the executor (instances
    are rescaled to that offered load); every axis can fill ``{axis}``
    placeholders in algorithm names and in the ``platform`` and ``models``
    blocks, all through one rule (``_substitute_templates``), so e.g.
    ``"dynmcb8-asap-per-{period}"`` crossed with ``sweep={"period": (60,
    600)}`` evaluates two periodic variants with zero driver code.
    """

    name: str
    source: WorkloadSource
    algorithms: Tuple[str, ...]
    cluster: Cluster = PAPER_CLUSTER
    penalty_seconds: float = 0.0
    sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    collectors: Tuple[CollectorSpec, ...] = (CollectorSpec("stretch"),)
    record_scheduler_times: bool = True
    #: Forward :attr:`repro.core.engine.SimulationConfig.repack_on_failure`:
    #: periodic schedulers repack immediately on a node failure instead of
    #: waiting for their next tick.  Serialised in the engine block only when
    #: True, so existing scenario hashes (and run caches) are unchanged.
    repack_on_failure: bool = False
    #: Optional :class:`repro.platform.Platform` (or its spec mapping)
    #: describing the machine, instead of a bare ``cluster``.  When set, the
    #: ``cluster`` field is *derived* from the platform.  A spec mapping may
    #: reference sweep axes with ``{axis}`` placeholders (e.g. sweep the
    #: failure MTBF or a node-class count); the executor then resolves one
    #: platform per cell.
    platform: Any = None
    #: Optional fidelity-model block: a mapping with ``"overhead"`` (an
    #: :class:`repro.models.OverheadModel` or its spec) and/or
    #: ``"execution_time"`` (an :class:`repro.models.ExecutionTimeModel` or
    #: its spec).  ``{axis}`` placeholders make the models a per-cell
    #: quantity, exactly like the platform block.  Default models
    #: (``none`` / ``exact``) are demoted to ``None`` so a scenario carrying
    #: them is byte-identical — spec, hash, cache keys — to one without a
    #: ``models`` block.
    models: Any = None
    #: Optional telemetry spec: a ``{"type": "stats" | "tracing"}`` mapping
    #: (:func:`repro.obs.telemetry_spec`), forwarded to the engine of every
    #: run.  An optional ``"flight": <capacity>`` field additionally
    #: attaches the per-job flight recorder (:mod:`repro.obs.flight`).  The
    #: default spec (``{"type": "off"}``) is demoted to ``None`` so a
    #: scenario carrying it is byte-identical — spec, hash, cache keys — to
    #: one without a ``telemetry`` block.  Live :class:`~repro.obs.Telemetry`
    #: sinks are rejected: scenarios are pure data, and every run must get
    #: its own fresh sink.
    telemetry: Any = None

    def __post_init__(self) -> None:
        # Names end up in cache keys and exported file names.
        if not re.fullmatch(r"[A-Za-z0-9._-]+", self.name or ""):
            raise ConfigurationError(
                f"scenario name {self.name!r} must be non-empty and use only "
                "letters, digits, '.', '_', and '-'"
            )
        if isinstance(self.algorithms, str):
            raise ConfigurationError(
                "algorithms must be a sequence of names, not a bare string"
            )
        if not self.algorithms:
            raise ConfigurationError("scenario algorithms must not be empty")
        if self.penalty_seconds < 0:
            raise ConfigurationError("penalty_seconds must be >= 0")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        sweep = self.sweep
        if isinstance(sweep, Mapping):
            sweep = tuple(sweep.items())
        for axis, values in sweep:
            if isinstance(values, str) or not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"sweep axis {axis!r} must map to a list of values, "
                    f"got {values!r}"
                )
        sweep = tuple((axis, tuple(values)) for axis, values in sweep)
        for axis, values in sweep:
            if not values:
                raise ConfigurationError(f"sweep axis {axis!r} must not be empty")
        axes = [axis for axis, _ in sweep]
        if len(axes) != len(set(axes)):
            raise ConfigurationError("sweep axes must be unique")
        object.__setattr__(self, "sweep", sweep)
        object.__setattr__(
            self,
            "collectors",
            tuple(CollectorSpec.of(spec) for spec in self.collectors),
        )
        self._init_platform()
        self._init_models()
        self._init_telemetry()

    def _init_block(self, name: str, spec: Any, build: Callable[[Any], Any]) -> Any:
        """Check, validate and cache the sweep-templatable ``name`` block.

        The one templating rule of the ``platform`` and ``models`` blocks:
        every ``{axis}`` placeholder must name a sweep axis.  A templated spec
        is kept verbatim and validated by building it with the first value of
        each axis, so a bad spec fails at build time, not mid-campaign;
        ``_static_<name>`` stays ``None`` and every cell builds its own block
        (:meth:`_resolve_block`).  A static spec is built once and cached as
        ``_static_<name>``.  Returns the built (or representative) block.
        """
        referenced = _template_axes(spec)
        missing = referenced - {axis for axis, _ in self.sweep}
        if missing:
            raise ConfigurationError(
                f"{name} spec references sweep axes that do not exist: "
                f"{', '.join(sorted(missing))}"
            )
        object.__setattr__(self, name, spec)
        if referenced:
            first = {axis: values[0] for axis, values in self.sweep}
            object.__setattr__(self, f"_static_{name}", None)
            return build(_substitute_templates(spec, first, name))
        built = build(spec)
        object.__setattr__(self, f"_static_{name}", built)
        return built

    def _resolve_block(
        self, name: str, params: Mapping[str, Any], build: Callable[[Any], Any]
    ) -> Any:
        """The ``name`` block of the cell with parameters ``params``: the
        cached static block, or the template filled and built."""
        static = getattr(self, f"_static_{name}")
        template = getattr(self, name)
        if static is not None or template is None:
            return static
        return build(_substitute_templates(template, dict(params), name))

    def _init_platform(self) -> None:
        """Normalise the ``platform`` field and derive the cluster from it.

        A static platform that adds nothing over a bare cluster — no
        availability events, no node-class names, no power draw, homogeneous
        nodes — *is* the legacy cluster path: it is demoted, making the
        scenario's spec dictionary, hash, cache keys and artifact names
        byte-identical to one built with ``cluster=...`` directly.  Class
        names (class-keyed overhead models and energy reports read them) and
        power vectors only reach the engine through the platform.
        """
        platform = self.platform
        object.__setattr__(self, "_static_platform", None)
        if platform is None:
            if self.cluster.is_heterogeneous:
                raise ConfigurationError(
                    "heterogeneous clusters must be declared through a "
                    "platform (see repro.platform.NodeClassesPlatform) so "
                    "the scenario spec can express them"
                )
            return
        if not isinstance(platform, (Platform, Mapping)):
            raise ConfigurationError(
                "platform must be a repro.platform.Platform or its spec "
                f"mapping, got {type(platform).__name__}"
            )
        if isinstance(platform, Mapping):
            platform = dict(platform)
        built = self._init_block("platform", platform, _build_platform)
        cluster = built.build_cluster()
        object.__setattr__(self, "cluster", cluster)
        if (
            self._static_platform is not None
            and built.events is None
            and built.node_class_names() is None
            and built.power_vectors() is None
            and not cluster.is_heterogeneous
        ):
            object.__setattr__(self, "platform", None)
            object.__setattr__(self, "_static_platform", None)

    def _init_models(self) -> None:
        """Normalise the ``models`` field into its canonical spec form.

        Model objects are coerced to their spec form first, so the scenario
        stays pure data (serialisable, stably hashable).  A static block is
        canonicalised through the built models: defaults (``none`` /
        ``exact``) are demoted, and a block carrying only defaults is dropped
        entirely, pinning the scenario byte-identical to a model-free one.
        """
        models = self.models
        object.__setattr__(self, "_static_models", (None, None))
        if models is None:
            return
        from ..models import ExecutionTimeModel, OverheadModel

        if not isinstance(models, Mapping):
            raise ConfigurationError(
                "models must be a mapping with 'overhead' and/or "
                f"'execution_time' entries, got {type(models).__name__}"
            )
        spec = dict(models)
        unknown = set(spec) - set(_MODEL_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown models spec fields: {', '.join(sorted(unknown))} "
                "(known: overhead, execution_time)"
            )
        for key, kind in zip(_MODEL_KEYS, (OverheadModel, ExecutionTimeModel)):
            if isinstance(spec.get(key), kind):
                spec[key] = spec[key].to_dict()
        built = self._init_block("models", spec, _build_models)
        if self._static_models is not None:
            canonical = {
                key: model.to_dict()
                for key, model in zip(_MODEL_KEYS, built)
                if model is not None
            }
            object.__setattr__(self, "models", canonical or None)

    def _init_telemetry(self) -> None:
        """Normalise the ``telemetry`` field into its canonical spec form.

        :func:`repro.obs.telemetry_spec` validates the spec at build time,
        not mid-campaign, and turns the default (``{"type": "off"}``) into
        ``None``, pinning the scenario byte-identical to a telemetry-free
        one.  Live sinks are rejected — a scenario is pure data, and sharing
        one sink across a campaign's runs would double count; the engine
        builds a fresh sink per run from the spec.
        """
        if self.telemetry is None:
            return
        from ..obs import Telemetry, telemetry_spec

        if isinstance(self.telemetry, Telemetry):
            raise ConfigurationError(
                "scenario telemetry must be a declarative {'type': ...} spec, "
                "not a live Telemetry sink — each run builds its own sink "
                "from the spec"
            )
        object.__setattr__(self, "telemetry", telemetry_spec(self.telemetry))

    @property
    def has_platform_template(self) -> bool:
        """True when the platform spec varies with the sweep cell."""
        return self.platform is not None and self._static_platform is None

    def resolved_platform(self, params: Mapping[str, Any] = ()) -> Optional[Any]:
        """The platform of the cell with parameters ``params`` (or ``None``)."""
        return self._resolve_block("platform", params, _build_platform)

    def resolved_models(self, params: Mapping[str, Any] = ()) -> Tuple[Any, Any]:
        """The ``(overhead, execution_time)`` models of one cell; either is
        ``None`` when the cell uses the engine's default."""
        return self._resolve_block("models", params, _build_models)

    # -- grid expansion --------------------------------------------------------
    def expand(self) -> List[Cell]:
        """Cross-product of the sweep axes, in axis order (one cell if empty)."""
        if not self.sweep:
            return [Cell(index=0)]
        axes = [axis for axis, _ in self.sweep]
        cells = []
        for index, combo in enumerate(
            itertools.product(*(values for _, values in self.sweep))
        ):
            cells.append(Cell(index=index, params=tuple(zip(axes, combo))))
        return cells

    def resolved_algorithms(self, params: Mapping[str, Any]) -> List[str]:
        """Algorithm names of one cell, with ``{axis}`` templates filled in.

        Duplicates (listed twice, or distinct templates resolving to the same
        name in this cell) are dropped keeping the first occurrence — one run
        per ``(instance, algorithm)`` pair, as the legacy drivers' per-name
        result dictionaries guaranteed.
        """
        params = dict(params)
        return list(
            dict.fromkeys(
                str(_substitute_templates(template, params, "algorithm"))
                for template in self.algorithms
            )
        )

    def simulation_config(self, params: Mapping[str, Any] = ()) -> SimulationConfig:
        """Engine configuration for one run in the cell with parameters ``params``.

        The cell's platform supplies the node availability events, failure
        policy, node-class names and power draw, its models block the
        overhead and execution-time models.  Scenarios without a platform or
        models get the exact configuration of previous releases.
        """
        platform = self.resolved_platform(params)
        overhead_model, execution_model = self.resolved_models(params)
        extra: Dict[str, Any] = {}
        if platform is not None and platform.events is not None:
            extra["node_events"] = platform.events
            extra["failure_policy"] = platform.failure_policy
        if platform is not None:
            class_names = platform.node_class_names()
            if class_names is not None:
                extra["node_class_names"] = class_names
            power = platform.power_vectors()
            if power is not None:
                extra["node_power"] = power
        if overhead_model is not None:
            extra["overhead_model"] = overhead_model
        if execution_model is not None:
            extra["execution_time_model"] = execution_model
        if self.telemetry is not None:
            extra["telemetry"] = dict(self.telemetry)
        return SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(self.penalty_seconds),
            record_scheduler_times=self.record_scheduler_times,
            repack_on_failure=self.repack_on_failure,
            **extra,
        )

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dictionary (what the scenario hash is computed over).

        Scenarios without a platform serialise their cluster block exactly as
        before, so pre-existing scenario hashes (and therefore run caches and
        exported artifact names) are unchanged.  Scenarios with a platform
        serialise the ``platform`` block *instead* — the cluster is derived
        state.
        """
        data: Dict[str, Any] = {
            "name": self.name,
            "source": self.source.to_dict(),
        }
        if self.platform is None:
            data["cluster"] = {
                "nodes": self.cluster.num_nodes,
                "cores_per_node": self.cluster.cores_per_node,
                "node_memory_gb": self.cluster.node_memory_gb,
            }
        elif self._static_platform is not None:
            data["platform"] = self._static_platform.to_dict()
        else:
            # Templated spec: the template itself (placeholders included) is
            # the canonical form — the sweep block already carries the
            # values.  An *untemplated* events sub-block is canonicalised
            # through its source (so e.g. a json trace's content fingerprint
            # still folds into the hash, and editing the file invalidates
            # caches exactly like on the static path).
            template = copy.deepcopy(self.platform)
            events = template.get("events")
            if isinstance(events, Mapping) and not _template_axes(events):
                template["events"] = node_event_source_from_dict(events).to_dict()
            data["platform"] = template
        # The models block is emitted only when it survived demotion — a
        # defaults-only block was dropped in ``_init_models``, keeping
        # model-free scenario hashes unchanged.
        if self.models is not None:
            data["models"] = copy.deepcopy(self.models)
        # Emitted only when it survived demotion: an "off" block was dropped
        # in ``_init_telemetry``, keeping telemetry-free hashes unchanged.
        if self.telemetry is not None:
            data["telemetry"] = dict(self.telemetry)
        data.update(
            {
                "algorithms": list(self.algorithms),
                "penalty_seconds": self.penalty_seconds,
                "sweep": [[axis, list(values)] for axis, values in self.sweep],
                "collectors": [spec.to_dict() for spec in self.collectors],
                "engine": {
                    # Hash compatibility: the loop it selected is gone.
                    "legacy_event_loop": False,
                    "record_scheduler_times": self.record_scheduler_times,
                },
            }
        )
        # Emitted only when set: the default (False) keeps the canonical
        # engine block — and therefore every pre-existing scenario hash,
        # run-cache key, and artifact name — byte-identical.
        if self.repack_on_failure:
            data["engine"]["repack_on_failure"] = True
        return data


def scenario_from_dict(data: Mapping[str, Any]) -> Scenario:
    """Build a scenario from a spec dictionary (inverse of ``to_dict``)."""
    payload = dict(data)
    unknown = set(payload) - {
        "name", "source", "cluster", "platform", "algorithms",
        "penalty_seconds", "sweep", "collectors", "engine", "models",
        "telemetry",
    }
    if unknown:
        raise ConfigurationError(
            f"unknown scenario spec fields: {', '.join(sorted(unknown))}"
        )
    if "source" not in payload:
        raise ConfigurationError("scenario spec needs a 'source' field")
    if "algorithms" not in payload:
        raise ConfigurationError("scenario spec needs an 'algorithms' field")
    platform_spec = payload.get("platform")
    if platform_spec is not None and "cluster" in payload:
        raise ConfigurationError(
            "scenario spec must not set both 'cluster' and 'platform': the "
            "platform block describes the whole machine (put nodes / "
            "cores_per_node / node_memory_gb inside it)"
        )
    cluster_spec = payload.get("cluster", {})
    unknown_cluster = set(cluster_spec) - {"nodes", "cores_per_node", "node_memory_gb"}
    if unknown_cluster:
        raise ConfigurationError(
            f"unknown cluster spec fields: {', '.join(sorted(unknown_cluster))} "
            "(known: nodes, cores_per_node, node_memory_gb)"
        )
    cluster = Cluster(
        num_nodes=int(cluster_spec.get("nodes", PAPER_CLUSTER.num_nodes)),
        cores_per_node=int(
            cluster_spec.get("cores_per_node", PAPER_CLUSTER.cores_per_node)
        ),
        node_memory_gb=float(
            cluster_spec.get("node_memory_gb", PAPER_CLUSTER.node_memory_gb)
        ),
    )
    sweep_spec = payload.get("sweep", ())
    # Axis values are validated (and coerced to tuples) by Scenario itself,
    # so a scalar like {"load": 0.5} gets a ConfigurationError, not a
    # TypeError.
    if isinstance(sweep_spec, Mapping):
        sweep = tuple(sweep_spec.items())
    else:
        sweep = tuple((axis, values) for axis, values in sweep_spec)
    engine = payload.get("engine", {})
    unknown_engine = set(engine) - {
        "legacy_event_loop", "record_scheduler_times", "repack_on_failure",
    }
    if unknown_engine:
        raise ConfigurationError(
            f"unknown engine spec fields: {', '.join(sorted(unknown_engine))} "
            "(known: record_scheduler_times, repack_on_failure)"
        )
    if engine.get("legacy_event_loop", False):
        raise ConfigurationError(
            "engine.legacy_event_loop is no longer supported: the full-scan "
            "event loop was removed in PR 12 (its outputs are frozen in "
            "tests/core/golden/engine_reference.json); drop the field"
        )
    return Scenario(
        name=payload.get("name", "scenario"),
        source=source_from_dict(payload["source"]),
        # Passed through untupled so Scenario's own bare-string guard fires
        # on "algorithms": "easy" instead of tuple() splitting it into chars.
        algorithms=payload["algorithms"],
        cluster=cluster,
        penalty_seconds=float(payload.get("penalty_seconds", 0.0)),
        sweep=sweep,
        collectors=tuple(
            CollectorSpec.of(spec)
            for spec in payload.get("collectors", ("stretch",))
        ),
        record_scheduler_times=bool(engine.get("record_scheduler_times", True)),
        repack_on_failure=bool(engine.get("repack_on_failure", False)),
        platform=platform_spec,
        models=payload.get("models"),
        telemetry=payload.get("telemetry"),
    )


def payload_hash(payload: Mapping[str, Any]) -> str:
    """Stable 16-hex-digit digest of a JSON-serialisable spec dictionary.

    Computed over sorted-key canonical JSON, so it is identical across
    processes, platforms, and Python versions.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def scenario_hash(scenario: Scenario) -> str:
    """Stable digest of a scenario's canonical spec (:meth:`Scenario.to_dict`).

    The key of the executor's resumable run cache.
    """
    return payload_hash(scenario.to_dict())
