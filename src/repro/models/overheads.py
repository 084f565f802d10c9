"""Overhead models: what preemption, migration, and checkpointing cost.

The paper's simulations charge no cost for preemption or checkpointing and
only a fixed resume penalty for migration; this module makes that fidelity
choice explicit and pluggable.  An :class:`OverheadModel` is asked by the
engine, at each preemption / migration / checkpoint / resume instant, how
many seconds of extra work the affected job must pay before it makes
progress again.  The charge lands on the job's ``penalty_remaining`` — the
same channel the paper's migration resume penalty uses — so overheads delay
completions, inflate stretch, and show up in the ``costs`` collector rows
(``overhead_events`` / ``overhead_seconds``).

The module mirrors the other subsystem seams (:mod:`repro.traces`,
:mod:`repro.platform`, ...): a small contract with a canonical
``to_dict``/``from_dict`` spec form and a ``type``-dispatching registry, so
an overhead model can be written in a ``repro-dfrs run`` spec file's
``models`` block (with ``{axis}`` sweep templating) exactly like a workload
source or platform can.

Four models are provided:

* ``none`` — the paper's convention: zero cost everywhere (the default; a
  scenario without a ``models`` block is byte-identical to one with
  ``{"overhead": {"type": "none"}}``).
* ``constant`` — a fixed per-event cost in seconds, settable per event kind.
* ``memory-linear`` — cost proportional to the job's total memory footprint
  (seconds per GB), the classic "migration moves the address space" model.
* ``checkpoint-bandwidth`` — cost = job memory / storage bandwidth, with
  optional per-node-class bandwidth overrides for heterogeneous platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.cluster import Cluster
from ..core.job import JobSpec
from ..exceptions import ConfigurationError
from ..registry import Registry

__all__ = [
    "OVERHEAD_EVENTS",
    "OverheadModel",
    "NoOverheadModel",
    "ConstantOverheadModel",
    "MemoryLinearOverheadModel",
    "CheckpointBandwidthOverheadModel",
    "register_overhead_model",
    "overhead_model_from_dict",
    "available_overhead_models",
    "job_memory_gb",
]

#: The engine instants an overhead model may charge at.
#:
#: * ``"preemption"`` — a running job is paused (state checkpointed out).
#: * ``"migration"`` — a running job moves to a different node set.
#: * ``"resume"`` — a paused job is restarted (state checkpointed in).
#: * ``"checkpoint"`` — a failing node's tasks are saved under the
#:   platform's ``failure_policy="migrate"``.
OVERHEAD_EVENTS = ("checkpoint", "migration", "preemption", "resume")


def job_memory_gb(spec: JobSpec, cluster: Cluster) -> float:
    """Total memory footprint of a job in GB (all tasks, physical units).

    ``mem_requirement`` is a fraction of the reference node's memory, so the
    footprint is ``num_tasks * mem_requirement * node_memory_gb`` — the same
    arithmetic :class:`~repro.core.penalties.ReschedulingPenaltyModel` uses
    for its bandwidth accounting.
    """
    return spec.total_memory * cluster.node_memory_gb


def _check_event(event: str) -> None:
    if event not in OVERHEAD_EVENTS:
        raise ConfigurationError(
            f"unknown overhead event {event!r}; known events: "
            f"{', '.join(OVERHEAD_EVENTS)}"
        )


def _check_seconds(label: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(
            f"{label} must be a finite value >= 0, got {value!r}"
        )
    return value


class OverheadModel:
    """Abstract per-event cost model, charged by the engine.

    Concrete models implement :meth:`overhead_seconds` and a canonical
    :meth:`to_dict`.  Models must be deterministic, picklable (they travel
    to campaign pool workers inside ``SimulationConfig``), and cheap —
    ``overhead_seconds`` runs on the engine's event hot path.
    """

    kind: str = "abstract"
    #: True when ``to_dict()`` round-trips through
    #: :func:`overhead_model_from_dict`.
    spec_expressible: bool = True

    def overhead_seconds(
        self,
        event: str,
        spec: JobSpec,
        cluster: Cluster,
        nodes: Optional[Tuple[int, ...]] = None,
        node_classes: Optional[Sequence[str]] = None,
    ) -> float:
        """Seconds of extra work ``event`` costs job ``spec``.

        ``nodes`` is the job's node assignment at the charge instant (the
        nodes the state moves from), when known; ``node_classes`` maps node
        index to platform node-class name on heterogeneous platforms
        (``None`` on the homogeneous cluster).
        """
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dictionary (with a ``type`` field)."""
        raise NotImplementedError


@dataclass(frozen=True)
class NoOverheadModel(OverheadModel):
    """The paper's convention: every event is free (the default model)."""

    kind = "none"

    def overhead_seconds(
        self,
        event: str,
        spec: JobSpec,
        cluster: Cluster,
        nodes: Optional[Tuple[int, ...]] = None,
        node_classes: Optional[Sequence[str]] = None,
    ) -> float:
        _check_event(event)
        return 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind}


@dataclass(frozen=True)
class ConstantOverheadModel(OverheadModel):
    """A fixed cost in seconds per event, settable per event kind."""

    preemption_seconds: float = 0.0
    migration_seconds: float = 0.0
    resume_seconds: float = 0.0
    checkpoint_seconds: float = 0.0

    kind = "constant"

    def __post_init__(self) -> None:
        for label in (
            "preemption_seconds",
            "migration_seconds",
            "resume_seconds",
            "checkpoint_seconds",
        ):
            object.__setattr__(
                self, label, _check_seconds(label, getattr(self, label))
            )

    def overhead_seconds(
        self,
        event: str,
        spec: JobSpec,
        cluster: Cluster,
        nodes: Optional[Tuple[int, ...]] = None,
        node_classes: Optional[Sequence[str]] = None,
    ) -> float:
        _check_event(event)
        return float(getattr(self, f"{event}_seconds"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "preemption_seconds": self.preemption_seconds,
            "migration_seconds": self.migration_seconds,
            "resume_seconds": self.resume_seconds,
            "checkpoint_seconds": self.checkpoint_seconds,
        }


@dataclass(frozen=True)
class MemoryLinearOverheadModel(OverheadModel):
    """Cost proportional to the job's total memory footprint.

    ``seconds_per_gb`` prices moving one GB of state; ``events`` restricts
    which instants are charged (default: all of them).  The footprint is the
    physical :func:`job_memory_gb`, so a 4-task job at ``mem_requirement
    0.25`` on 8 GB nodes pays for 8 GB per charged event.
    """

    seconds_per_gb: float = 0.0
    events: Tuple[str, ...] = OVERHEAD_EVENTS

    kind = "memory-linear"

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "seconds_per_gb",
            _check_seconds("seconds_per_gb", self.seconds_per_gb),
        )
        events = tuple(self.events)
        for event in events:
            _check_event(event)
        if not events:
            raise ConfigurationError(
                "memory-linear overhead model needs at least one event; "
                f"known events: {', '.join(OVERHEAD_EVENTS)}"
            )
        if len(set(events)) != len(events):
            raise ConfigurationError(
                f"memory-linear overhead events contain duplicates: {events!r}"
            )
        # Canonical order keeps to_dict stable regardless of spec order.
        object.__setattr__(self, "events", tuple(sorted(events)))

    def overhead_seconds(
        self,
        event: str,
        spec: JobSpec,
        cluster: Cluster,
        nodes: Optional[Tuple[int, ...]] = None,
        node_classes: Optional[Sequence[str]] = None,
    ) -> float:
        _check_event(event)
        if event not in self.events:
            return 0.0
        return self.seconds_per_gb * job_memory_gb(spec, cluster)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": self.kind,
            "seconds_per_gb": self.seconds_per_gb,
        }
        if self.events != OVERHEAD_EVENTS:
            data["events"] = list(self.events)
        return data


@dataclass(frozen=True)
class CheckpointBandwidthOverheadModel(OverheadModel):
    """Cost = job memory / storage bandwidth, per-node-class overridable.

    Every charged instant moves the job's state through the checkpoint
    store once (the paper's single-transfer convention for migration), so
    each event costs ``job_memory_gb / bandwidth``.  On heterogeneous
    platforms ``class_bandwidth`` overrides the default per node class; the
    effective bandwidth of a multi-node assignment is the *slowest* class
    in it (the transfer completes when the last node's state is saved).
    """

    bandwidth_gb_per_sec: float = 1.0
    class_bandwidth: Mapping[str, float] = field(default_factory=dict)

    kind = "checkpoint-bandwidth"

    def __post_init__(self) -> None:
        bandwidth = float(self.bandwidth_gb_per_sec)
        if not math.isfinite(bandwidth) or bandwidth <= 0:
            raise ConfigurationError(
                "bandwidth_gb_per_sec must be a finite value > 0, "
                f"got {bandwidth!r}"
            )
        object.__setattr__(self, "bandwidth_gb_per_sec", bandwidth)
        if not isinstance(self.class_bandwidth, Mapping):
            raise ConfigurationError(
                "class_bandwidth must be a mapping of node-class name to "
                f"GB/s, got {type(self.class_bandwidth).__name__}"
            )
        checked: Dict[str, float] = {}
        for name, value in self.class_bandwidth.items():
            value = float(value)
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(
                    f"class_bandwidth[{name!r}] must be a finite value > 0, "
                    f"got {value!r}"
                )
            checked[str(name)] = value
        object.__setattr__(self, "class_bandwidth", checked)

    def _effective_bandwidth(
        self,
        nodes: Optional[Tuple[int, ...]],
        node_classes: Optional[Sequence[str]],
    ) -> float:
        if not self.class_bandwidth or nodes is None or node_classes is None:
            return self.bandwidth_gb_per_sec
        slowest = math.inf
        for node in nodes:
            if 0 <= node < len(node_classes):
                name = node_classes[node]
                slowest = min(
                    slowest,
                    self.class_bandwidth.get(name, self.bandwidth_gb_per_sec),
                )
        if not math.isfinite(slowest):
            return self.bandwidth_gb_per_sec
        return slowest

    def overhead_seconds(
        self,
        event: str,
        spec: JobSpec,
        cluster: Cluster,
        nodes: Optional[Tuple[int, ...]] = None,
        node_classes: Optional[Sequence[str]] = None,
    ) -> float:
        _check_event(event)
        bandwidth = self._effective_bandwidth(nodes, node_classes)
        return job_memory_gb(spec, cluster) / bandwidth

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": self.kind,
            "bandwidth_gb_per_sec": self.bandwidth_gb_per_sec,
        }
        if self.class_bandwidth:
            data["class_bandwidth"] = {
                name: self.class_bandwidth[name]
                for name in sorted(self.class_bandwidth)
            }
        return data


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
OVERHEAD_MODELS: Registry[OverheadModel] = Registry("overhead model", base=OverheadModel)
register_overhead_model = OVERHEAD_MODELS.register
available_overhead_models = OVERHEAD_MODELS.available
overhead_model_from_dict = OVERHEAD_MODELS.from_dict


def _memory_linear_from_spec(
    seconds_per_gb: float = 0.0,
    events: Optional[Sequence[str]] = None,
) -> MemoryLinearOverheadModel:
    if events is None:
        return MemoryLinearOverheadModel(seconds_per_gb=float(seconds_per_gb))
    return MemoryLinearOverheadModel(
        seconds_per_gb=float(seconds_per_gb),
        events=tuple(str(event) for event in events),
    )


register_overhead_model("none", NoOverheadModel)
register_overhead_model("constant", ConstantOverheadModel)
register_overhead_model("memory-linear", _memory_linear_from_spec)
register_overhead_model(
    "checkpoint-bandwidth", CheckpointBandwidthOverheadModel
)
