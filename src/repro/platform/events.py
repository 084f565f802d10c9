"""Timed node availability: failure/repair traces for dynamic platforms.

A :class:`NodeEventSource` is the platform-side sibling of
:class:`repro.traces.JobSource`: a named, deterministic, **re-iterable**
producer of a time-ordered stream of :class:`NodeEvent`s (node went down /
came back up) for a given cluster.  The engine consumes the stream once at
the start of a run (failure traces are tiny next to job traces — one entry
per failure, not per job) and turns it into ``NODE_DOWN``/``NODE_UP``
simulation events.

The contract:

* ``events(cluster)`` yields events with **non-decreasing times** and node
  indices inside the cluster; both are validated.
* Iterating twice yields the same stream (sources are pure descriptions;
  all randomness is seeded).
* ``to_dict()`` returns the canonical spec form; such dictionaries
  round-trip through :func:`node_event_source_from_dict` and can appear in
  ``repro-dfrs run`` spec files inside a scenario's ``platform`` block.

Two synthetic models cover the classic availability literature —
:class:`ExponentialFailureSource` (memoryless failures, the Poisson-process
baseline) and :class:`WeibullFailureSource` (shape < 1 captures the
infant-mortality / long-tail behaviour reported for real HPC failure traces)
— plus two trace forms: :class:`TraceNodeEventSource` (events inline in the
spec) and :class:`JsonNodeEventSource` (the ``repro-dfrs-node-events-v1``
JSON file format, content-fingerprinted into scenario hashes the same way
SWF workload files are).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.cluster import Cluster
from ..exceptions import ConfigurationError
from ..registry import Registry, content_fingerprint

__all__ = [
    "NodeEvent",
    "NodeEventSource",
    "ExponentialFailureSource",
    "WeibullFailureSource",
    "TraceNodeEventSource",
    "JsonNodeEventSource",
    "register_node_event_source",
    "node_event_source_from_dict",
    "available_node_event_sources",
    "write_node_events_json",
    "NODE_EVENTS_JSON_FORMAT",
]

#: Format tag of the node-event JSON trace files.
NODE_EVENTS_JSON_FORMAT = "repro-dfrs-node-events-v1"


@dataclass(frozen=True)
class NodeEvent:
    """One change of a node's availability: down (``up=False``) or repaired."""

    time: float
    node: int
    up: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ConfigurationError(
                f"node event time must be finite and >= 0, got {self.time}"
            )
        if self.node < 0:
            raise ConfigurationError(
                f"node event index must be >= 0, got {self.node}"
            )

    @property
    def kind(self) -> str:
        return "up" if self.up else "down"


class NodeEventSource:
    """Abstract producer of a time-ordered node availability stream."""

    kind: str = "abstract"
    #: True when ``to_dict()`` round-trips through
    #: :func:`node_event_source_from_dict`.
    spec_expressible: bool = True

    def events(self, cluster: Cluster) -> Iterator[NodeEvent]:
        """Yield availability events in time order for ``cluster``."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dictionary (with a ``type`` field)."""
        raise NotImplementedError

    def materialize(self, cluster: Cluster) -> List[NodeEvent]:
        """Collect and validate the full event stream for ``cluster``."""
        return list(self.events(cluster))


def _check_stream(
    events: Iterable[NodeEvent], cluster: Cluster, origin: str
) -> Iterator[NodeEvent]:
    """Validate ordering and node range while passing events through."""
    previous = -math.inf
    for position, event in enumerate(events):
        if event.time < previous:
            raise ConfigurationError(
                f"{origin}: node events must be time-ordered; event "
                f"{position} at t={event.time:.3f} follows t={previous:.3f}"
            )
        if event.node >= cluster.num_nodes:
            raise ConfigurationError(
                f"{origin}: event {position} names node {event.node} but the "
                f"cluster only has {cluster.num_nodes} nodes"
            )
        previous = event.time
        yield event


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
# ``content`` fingerprints are derived state, not constructor arguments.
NODE_EVENT_SOURCES: Registry[NodeEventSource] = Registry(
    "node event source", base=NodeEventSource, derived_keys=("content",)
)
register_node_event_source = NODE_EVENT_SOURCES.register
available_node_event_sources = NODE_EVENT_SOURCES.available
node_event_source_from_dict = NODE_EVENT_SOURCES.from_dict


# --------------------------------------------------------------------------- #
# Synthetic failure/repair models                                              #
# --------------------------------------------------------------------------- #
def _merged_per_node(
    cluster: Cluster,
    per_node: Callable[[int], List[NodeEvent]],
) -> List[NodeEvent]:
    """Merge independently generated per-node streams into one time order.

    The sort is stable on ``(time, node)`` with down-before-up at exact ties
    of the same instant across nodes, which makes the merged stream fully
    deterministic.
    """
    merged: List[NodeEvent] = []
    for node in range(cluster.num_nodes):
        merged.extend(per_node(node))
    merged.sort(key=lambda event: (event.time, event.node, event.up))
    return merged


@dataclass(frozen=True)
class ExponentialFailureSource(NodeEventSource):
    """Independent exponential failure/repair processes per node.

    Every node alternates up intervals drawn from ``Exp(mtbf_seconds)`` and
    down intervals drawn from ``Exp(mttr_seconds)``, starting up at t = 0.
    ``horizon_seconds`` bounds failure *onsets*; the matching repair is
    always emitted (possibly past the horizon) so no node stays dead
    forever.  Node ``n`` uses the seed sequence ``(seed, n)``, so streams
    are deterministic, re-iterable, and node-decorrelated.
    """

    mtbf_seconds: float = 86400.0
    mttr_seconds: float = 3600.0
    horizon_seconds: float = 604800.0
    seed: int = 2010

    kind = "exponential"

    def __post_init__(self) -> None:
        if self.mtbf_seconds <= 0:
            raise ConfigurationError(
                f"mtbf_seconds must be > 0, got {self.mtbf_seconds}"
            )
        if self.mttr_seconds <= 0:
            raise ConfigurationError(
                f"mttr_seconds must be > 0, got {self.mttr_seconds}"
            )
        if self.horizon_seconds <= 0:
            raise ConfigurationError(
                f"horizon_seconds must be > 0, got {self.horizon_seconds}"
            )

    def _uptime(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mtbf_seconds))

    def _downtime(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mttr_seconds))

    def _node_stream(self, node: int) -> List[NodeEvent]:
        rng = np.random.default_rng([self.seed, node])
        events: List[NodeEvent] = []
        t = 0.0
        while True:
            t += self._uptime(rng)
            if t >= self.horizon_seconds:
                break
            events.append(NodeEvent(time=t, node=node, up=False))
            t += self._downtime(rng)
            events.append(NodeEvent(time=t, node=node, up=True))
        return events

    def events(self, cluster: Cluster) -> Iterator[NodeEvent]:
        merged = _merged_per_node(cluster, self._node_stream)
        return _check_stream(merged, cluster, self.kind)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "mtbf_seconds": self.mtbf_seconds,
            "mttr_seconds": self.mttr_seconds,
            "horizon_seconds": self.horizon_seconds,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class WeibullFailureSource(ExponentialFailureSource):
    """Weibull-distributed uptimes (exponential repairs).

    ``shape < 1`` gives the decreasing hazard rate (many early failures,
    long quiet tails) reported for real HPC availability traces;
    ``shape = 1`` degenerates to :class:`ExponentialFailureSource`.  The
    Weibull scale is derived from ``mtbf_seconds`` so the *mean* uptime
    matches the requested MTBF regardless of shape:
    ``scale = mtbf / Γ(1 + 1/shape)``.
    """

    shape: float = 0.7

    kind = "weibull"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shape <= 0:
            raise ConfigurationError(f"shape must be > 0, got {self.shape}")
        # The gamma-corrected scale is a pure function of the frozen fields;
        # compute it once, not once per uptime draw.
        object.__setattr__(
            self,
            "_scale",
            self.mtbf_seconds / math.gamma(1.0 + 1.0 / self.shape),
        )

    def _uptime(self, rng: np.random.Generator) -> float:
        return float(self._scale * rng.weibull(self.shape))

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data["type"] = self.kind
        data["shape"] = self.shape
        return data


# --------------------------------------------------------------------------- #
# Trace forms                                                                  #
# --------------------------------------------------------------------------- #
def _event_from_triple(triple: Sequence[Any], position: int) -> NodeEvent:
    if len(triple) != 3:
        raise ConfigurationError(
            f"node event {position} must be [time, node, 'down'|'up'], "
            f"got {list(triple)!r}"
        )
    time, node, kind = triple
    if kind not in ("down", "up"):
        raise ConfigurationError(
            f"node event {position}: kind must be 'down' or 'up', got {kind!r}"
        )
    return NodeEvent(time=float(time), node=int(node), up=(kind == "up"))


@dataclass(frozen=True)
class TraceNodeEventSource(NodeEventSource):
    """Availability events listed inline in the spec.

    ``events`` is a sequence of ``[time, node, "down"|"up"]`` triples in
    time order — the same rows as the JSON trace file format, but embedded
    directly, which is convenient for small hand-written scenarios and for
    tests.
    """

    events_list: Tuple[Tuple[float, int, str], ...] = ()

    kind = "trace"

    def __post_init__(self) -> None:
        canonical: List[Tuple[float, int, str]] = []
        for position, triple in enumerate(self.events_list):
            event = _event_from_triple(triple, position)
            canonical.append((event.time, event.node, event.kind))
        object.__setattr__(self, "events_list", tuple(canonical))
        times = [time for time, _, _ in self.events_list]
        if times != sorted(times):
            raise ConfigurationError(
                "inline node events must be listed in time order"
            )

    def events(self, cluster: Cluster) -> Iterator[NodeEvent]:
        stream = (
            _event_from_triple(triple, position)
            for position, triple in enumerate(self.events_list)
        )
        return _check_stream(stream, cluster, self.kind)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "events": [[time, node, kind] for time, node, kind in self.events_list],
        }


def _trace_from_spec(events: Sequence[Sequence[Any]] = ()) -> TraceNodeEventSource:
    return TraceNodeEventSource(events_list=tuple(tuple(row) for row in events))


@dataclass(frozen=True)
class JsonNodeEventSource(NodeEventSource):
    """Availability events stored in a ``repro-dfrs-node-events-v1`` file.

    The file is a JSON object ``{"format": "repro-dfrs-node-events-v1",
    "events": [[time, node, "down"|"up"], ...]}`` (see
    :func:`write_node_events_json`).  Like SWF workload files, the file
    content is fingerprinted into the canonical spec form so editing a trace
    in place invalidates campaign caches instead of serving stale rows.
    """

    path: str = ""

    kind = "json"

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("JsonNodeEventSource needs a trace file path")

    def _load(self) -> List[Tuple[float, int, str]]:
        path = Path(self.path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ConfigurationError(
                f"cannot read node event trace {path}: {error}"
            ) from None
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"invalid node event trace {path}: {error}"
            ) from None
        if (
            not isinstance(payload, Mapping)
            or payload.get("format") != NODE_EVENTS_JSON_FORMAT
        ):
            raise ConfigurationError(
                f"{path} is not a {NODE_EVENTS_JSON_FORMAT} file"
            )
        rows = payload.get("events", ())
        if not isinstance(rows, Sequence):
            raise ConfigurationError(f"{path}: 'events' must be a list")
        return [tuple(row) for row in rows]

    def events(self, cluster: Cluster) -> Iterator[NodeEvent]:
        stream = (
            _event_from_triple(row, position)
            for position, row in enumerate(self._load())
        )
        return _check_stream(stream, cluster, f"{self.kind}:{self.path}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"type": self.kind, "path": self.path}
        fingerprint = content_fingerprint(self)
        if fingerprint is not None:
            data["content"] = fingerprint
        return data


def write_node_events_json(
    events: Iterable[NodeEvent], path: Union[str, Path]
) -> Path:
    """Write events as a ``repro-dfrs-node-events-v1`` trace file."""
    target = Path(path)
    payload = {
        "format": NODE_EVENTS_JSON_FORMAT,
        "events": [[event.time, event.node, event.kind] for event in events],
    }
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


register_node_event_source("exponential", ExponentialFailureSource)
register_node_event_source("weibull", WeibullFailureSource)
register_node_event_source("trace", _trace_from_spec)
register_node_event_source("json", JsonNodeEventSource)
