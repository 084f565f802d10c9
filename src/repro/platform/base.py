"""The :class:`Platform` contract, its registry, and the standard platforms.

A *platform* is a named, declarative description of the machine a scenario
runs on: how many nodes, how fast and how big each node is, and (optionally)
when nodes fail and recover.  It mirrors the :mod:`repro.traces` design — a
small contract with a canonical ``to_dict``/``from_dict`` spec form and a
``type``-dispatching registry — so a platform can be written in a
``repro-dfrs run`` spec file exactly like a workload source can.

Two platforms are provided:

* :class:`HomogeneousPlatform` wraps today's :class:`~repro.core.cluster.
  Cluster` **byte-identically**: its cluster carries no capacity vectors, so
  every engine, scheduler, and packing code path takes the original
  homogeneous arithmetic.
* :class:`NodeClassesPlatform` describes a heterogeneous machine as an
  ordered list of :class:`NodeClass` entries (count, relative CPU speed,
  relative memory size); its cluster carries per-node capacity vectors and
  nodes are laid out class by class in declaration order.  A single all-ones
  class canonicalises to the homogeneous cluster, so "heterogeneous in shape
  but not in fact" costs nothing.

Either platform may carry a :class:`~repro.platform.events.NodeEventSource`
(``events``) plus a ``failure_policy`` telling the engine what happens to
the tasks of a failed node:

* ``"resubmit"`` (default) — jobs with a task on the node are killed and
  requeued from scratch (progress lost, no state saved);
* ``"migrate"`` — jobs are checkpointed to storage exactly like a scheduler
  preemption (progress kept, preemption cost charged, resume penalty paid
  when a scheduler later restarts them elsewhere).  This policy needs a
  scheduler that resumes paused jobs (the pmtn/dynmcb8 families).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.cluster import Cluster
from ..exceptions import ConfigurationError
from ..registry import Registry
from .events import NodeEventSource, node_event_source_from_dict

__all__ = [
    "FAILURE_POLICIES",
    "DEFAULT_BUSY_WATTS",
    "DEFAULT_IDLE_WATTS",
    "Platform",
    "HomogeneousPlatform",
    "NodeClass",
    "NodeClassesPlatform",
    "register_platform",
    "platform_from_dict",
    "available_platforms",
]

#: Engine policies for tasks running on a node when it fails.
FAILURE_POLICIES = ("resubmit", "migrate")

#: Reference-node power draw (watts), used for node classes that declare no
#: watts of their own on a platform where at least one class does.
DEFAULT_BUSY_WATTS = 300.0
DEFAULT_IDLE_WATTS = 180.0


class Platform:
    """Abstract declarative description of the simulated machine."""

    kind: str = "abstract"
    #: True when ``to_dict()`` round-trips through :func:`platform_from_dict`.
    spec_expressible: bool = True
    #: Optional availability trace (set by the concrete dataclasses).
    events: Optional[NodeEventSource] = None
    #: What the engine does to tasks on a failed node (see module docstring).
    failure_policy: str = "resubmit"

    def build_cluster(self) -> Cluster:
        """The :class:`~repro.core.cluster.Cluster` this platform describes."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dictionary (with a ``type`` field)."""
        raise NotImplementedError

    def node_class_names(self) -> Optional[Tuple[str, ...]]:
        """Per-node class-name tuple, or ``None`` when classless.

        Overhead models with per-class parameters (e.g. checkpoint bandwidth
        per node class) consult this through
        :attr:`repro.core.engine.SimulationConfig.node_class_names`.
        """
        return None

    def power_vectors(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        """Per-node ``(busy_watts, idle_watts)`` draw, or ``None``.

        ``None`` (the default) disables energy accounting entirely — the
        engine's default path is untouched.
        """
        return None

    def _events_spec(self) -> Dict[str, Any]:
        """The shared tail of the spec form: events + failure policy."""
        if self.events is None:
            return {}
        return {
            "events": self.events.to_dict(),
            "failure_policy": self.failure_policy,
        }

    def _check_failure_policy(self) -> None:
        if self.failure_policy not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"failure_policy must be one of {', '.join(FAILURE_POLICIES)}; "
                f"got {self.failure_policy!r}"
            )


def _coerce_events(events: Any) -> Optional[NodeEventSource]:
    """Accept an event source object or its spec dictionary."""
    if events is None or isinstance(events, NodeEventSource):
        return events
    if isinstance(events, Mapping):
        return node_event_source_from_dict(events)
    raise ConfigurationError(
        f"platform events must be a NodeEventSource or a spec mapping, "
        f"got {type(events).__name__}"
    )


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
PLATFORMS: Registry[Platform] = Registry("platform", base=Platform)
register_platform = PLATFORMS.register
available_platforms = PLATFORMS.available
platform_from_dict = PLATFORMS.from_dict


# --------------------------------------------------------------------------- #
# Homogeneous adapter                                                          #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class HomogeneousPlatform(Platform):
    """The paper's homogeneous cluster as a platform.

    ``build_cluster`` returns a plain :class:`~repro.core.cluster.Cluster`
    with no capacity vectors, so every downstream code path is byte-identical
    to constructing the cluster directly.
    """

    nodes: int = 128
    cores_per_node: int = 4
    node_memory_gb: float = 8.0
    events: Optional[NodeEventSource] = None
    failure_policy: str = "resubmit"

    kind = "homogeneous"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", _coerce_events(self.events))
        self._check_failure_policy()
        # Validate the cluster parameters eagerly (same errors as Cluster).
        self.build_cluster()

    def build_cluster(self) -> Cluster:
        return Cluster(self.nodes, self.cores_per_node, self.node_memory_gb)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": self.kind,
            "nodes": self.nodes,
            "cores_per_node": self.cores_per_node,
            "node_memory_gb": self.node_memory_gb,
        }
        data.update(self._events_spec())
        return data


# --------------------------------------------------------------------------- #
# Heterogeneous node classes                                                   #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NodeClass:
    """One group of identical nodes inside a :class:`NodeClassesPlatform`.

    ``cpu`` is the class's CPU capacity relative to the reference node (2.0 =
    twice the fluid CPU of a reference node); ``memory`` is its memory
    capacity relative to the reference node's ``node_memory_gb``.
    """

    name: str
    count: int
    cpu: float = 1.0
    memory: float = 1.0
    #: Optional power draw of one node of this class (watts).  ``None``
    #: (the default) leaves the class out of energy accounting: the platform
    #: only reports power vectors when at least one class declares watts, and
    #: classes without them fall back to the reference draw (300 W busy /
    #: 180 W idle).  Both fields are serialised only when set, so platforms
    #: without power declarations keep their existing spec form and hash.
    busy_watts: Optional[float] = None
    idle_watts: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node class needs a non-empty name")
        if self.count < 1:
            raise ConfigurationError(
                f"node class {self.name!r}: count must be >= 1, got {self.count}"
            )
        if self.cpu <= 0:
            raise ConfigurationError(
                f"node class {self.name!r}: cpu must be > 0, got {self.cpu}"
            )
        if self.memory <= 0:
            raise ConfigurationError(
                f"node class {self.name!r}: memory must be > 0, got {self.memory}"
            )
        for label, watts in (("busy_watts", self.busy_watts),
                             ("idle_watts", self.idle_watts)):
            if watts is not None and watts < 0:
                raise ConfigurationError(
                    f"node class {self.name!r}: {label} must be >= 0, "
                    f"got {watts}"
                )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "count": self.count,
            "cpu": self.cpu,
            "memory": self.memory,
        }
        if self.busy_watts is not None:
            data["busy_watts"] = self.busy_watts
        if self.idle_watts is not None:
            data["idle_watts"] = self.idle_watts
        return data

    @classmethod
    def of(cls, spec: Any) -> "NodeClass":
        if isinstance(spec, NodeClass):
            return spec
        if isinstance(spec, Mapping):
            payload = dict(spec)
            try:
                return cls(**payload)
            except TypeError as error:
                raise ConfigurationError(
                    f"invalid node class spec {spec!r}: {error}"
                ) from None
        raise ConfigurationError(
            f"cannot interpret node class spec {spec!r}"
        )


@dataclass(frozen=True)
class NodeClassesPlatform(Platform):
    """Heterogeneous cluster described as an ordered list of node classes.

    Nodes are laid out class by class in declaration order, so node indices
    ``0 .. count_0-1`` belong to the first class, and so on (see
    :meth:`class_of_node`).  ``node_memory_gb`` is the physical memory of the
    capacity-1.0 *reference* node, which keeps the preemption/migration byte
    accounting consistent across classes.
    """

    classes: Tuple[NodeClass, ...] = ()
    cores_per_node: int = 4
    node_memory_gb: float = 8.0
    events: Optional[NodeEventSource] = None
    failure_policy: str = "resubmit"

    kind = "node-classes"

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError(
                "NodeClassesPlatform needs at least one node class"
            )
        object.__setattr__(
            self, "classes", tuple(NodeClass.of(spec) for spec in self.classes)
        )
        names = [node_class.name for node_class in self.classes]
        if len(names) != len(set(names)):
            raise ConfigurationError("node class names must be unique")
        object.__setattr__(self, "events", _coerce_events(self.events))
        self._check_failure_policy()
        self.build_cluster()

    @property
    def num_nodes(self) -> int:
        return sum(node_class.count for node_class in self.classes)

    def class_of_node(self, node: int) -> NodeClass:
        """The class owning node index ``node`` (classes laid out in order)."""
        cursor = node
        for node_class in self.classes:
            if cursor < node_class.count:
                return node_class
            cursor -= node_class.count
        raise ConfigurationError(
            f"node index {node} out of range [0, {self.num_nodes})"
        )

    def node_class_names(self) -> Optional[Tuple[str, ...]]:
        names: List[str] = []
        for node_class in self.classes:
            names.extend([node_class.name] * node_class.count)
        return tuple(names)

    def power_vectors(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        if all(
            node_class.busy_watts is None and node_class.idle_watts is None
            for node_class in self.classes
        ):
            return None
        vectors: List[Tuple[float, float]] = []
        for node_class in self.classes:
            busy = (
                node_class.busy_watts
                if node_class.busy_watts is not None
                else DEFAULT_BUSY_WATTS
            )
            idle = (
                node_class.idle_watts
                if node_class.idle_watts is not None
                else DEFAULT_IDLE_WATTS
            )
            vectors.extend([(busy, idle)] * node_class.count)
        return tuple(vectors)

    def build_cluster(self) -> Cluster:
        cpu: List[float] = []
        memory: List[float] = []
        for node_class in self.classes:
            cpu.extend([node_class.cpu] * node_class.count)
            memory.extend([node_class.memory] * node_class.count)
        # Cluster canonicalises all-ones vectors to None, so a single
        # reference-class platform produces the homogeneous cluster exactly.
        return Cluster(
            num_nodes=self.num_nodes,
            cores_per_node=self.cores_per_node,
            node_memory_gb=self.node_memory_gb,
            cpu_capacities=tuple(cpu),
            mem_capacities=tuple(memory),
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": self.kind,
            "classes": [node_class.to_dict() for node_class in self.classes],
            "cores_per_node": self.cores_per_node,
            "node_memory_gb": self.node_memory_gb,
        }
        data.update(self._events_spec())
        return data


def _node_classes_from_spec(
    classes: Sequence[Any] = (),
    cores_per_node: int = 4,
    node_memory_gb: float = 8.0,
    events: Optional[Mapping[str, Any]] = None,
    failure_policy: str = "resubmit",
) -> NodeClassesPlatform:
    return NodeClassesPlatform(
        classes=tuple(NodeClass.of(spec) for spec in classes),
        cores_per_node=int(cores_per_node),
        node_memory_gb=float(node_memory_gb),
        events=events,
        failure_policy=failure_policy,
    )


register_platform("homogeneous", HomogeneousPlatform)
register_platform("node-classes", _node_classes_from_spec)
