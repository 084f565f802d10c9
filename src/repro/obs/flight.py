"""Per-job flight recorder: a causal lifecycle event log with bounded memory.

The telemetry sink observes *aggregate* engine behaviour (phase timings,
counters); the flight recorder observes *individual jobs*: one structured
event per lifecycle transition — submit / admit / start / preempt / migrate
/ resume / checkpoint / failure-kill / complete / cancel — each stamped with the
simulated time, the node assignment in force, and the cause of the
transition.  It answers the question the aggregate view cannot: *why* was
job 4711 preempted at t=86400, and where was it running when that happened?

Capture is enabled through the telemetry spec path
(``SimulationConfig(telemetry={"type": "stats", "flight": 65536})``): the
built :class:`~repro.obs.telemetry.Telemetry` sink carries a
:class:`FlightRecorder` on its ``flight`` attribute and the engine attaches
a :class:`FlightObserver` feeding it.  The disabled path (no telemetry, or
telemetry without a ``flight`` capacity) attaches nothing and stays
byte-identical — the recorder is a pure observer and never influences
scheduling decisions.

Memory is bounded: the recorder is a ring buffer of ``capacity`` events;
once full, recording a new event evicts the oldest and increments
:attr:`FlightRecorder.dropped` — a long-haul soak keeps the *latest* window
of history, which is the window a health investigation wants.

Two export formats:

* :func:`write_flight_jsonl` — one JSON object per line, the archival form;
* :func:`write_flight_trace` — Chrome trace-event JSON with **one lane per
  job** (``tid`` = job id): load it at https://ui.perfetto.dev and every
  job is a horizontal track of run slices, with instant markers at the
  preemption/migration/failure points carrying the cause.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    List,
    Set,
    Tuple,
    Union,
)

from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core import cycles
    from ..core.observers import SimEvent

__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "FlightObserver",
    "flight_trace_events",
    "write_flight_jsonl",
    "write_flight_trace",
]

#: Default ring capacity: enough for every event of a 100k-job replay with
#: churn, small enough (~tens of MB) to leave soak-length runs bounded.
DEFAULT_FLIGHT_CAPACITY = 1_048_576

#: The closed vocabulary of event kinds, in rough lifecycle order.
EVENT_KINDS = (
    "submit",
    "admit",
    "start",
    "preempt",
    "checkpoint",
    "failure-kill",
    "migrate",
    "resume",
    "complete",
    "cancel",
)

#: Kinds that close a running interval in the per-job timeline view.
_CLOSING_KINDS = frozenset(
    {"preempt", "checkpoint", "failure-kill", "complete", "cancel"}
)
#: Kinds that open (or re-open) a running interval.
_OPENING_KINDS = frozenset({"start", "resume", "migrate"})
#: The engine events the flight observer records (all but the serve layer's
#: ``admit``), and those of them caused by a plain scheduler decision.
_JOB_KINDS = frozenset(EVENT_KINDS) - {"admit"}
_SCHEDULER_KINDS = frozenset({"start", "resume", "preempt"})


@dataclass(frozen=True)
class FlightEvent:
    """One recorded lifecycle transition of one job."""

    #: Simulated time of the transition (seconds).
    time: float
    #: One of :data:`EVENT_KINDS`.
    kind: str
    job_id: int
    #: Node assignment in force at the transition (the *new* assignment for
    #: start/resume/migrate, the assignment being vacated for preempt/
    #: checkpoint/failure-kill/complete, empty when the job held none).
    nodes: Tuple[int, ...] = ()
    #: Why the transition happened (``"scheduler"``, ``"node-failure:3"``,
    #: an admission verdict, ...); empty when self-evident (submit).
    cause: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the JSON-lines record)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "job_id": self.job_id,
            "nodes": list(self.nodes),
            "cause": self.cause,
        }


class FlightRecorder:
    """Bounded ring buffer of :class:`FlightEvent` records.

    ``capacity`` bounds resident events; recording into a full ring evicts
    the oldest event and increments :attr:`dropped`.  The recorder is a
    passive store — the engine-facing intake lives in
    :class:`FlightObserver`, and the serve layer records admission verdicts
    directly via :meth:`record`.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        capacity = int(capacity)
        if capacity <= 0:
            raise ConfigurationError(
                f"flight recorder capacity must be a positive integer, "
                f"got {capacity}"
            )
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[FlightEvent] = deque(maxlen=capacity)

    def record(
        self,
        time: float,
        kind: str,
        job_id: int,
        *,
        nodes: Tuple[int, ...] = (),
        cause: str = "",
    ) -> None:
        """Append one event, evicting the oldest when the ring is full."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(
            FlightEvent(
                time=time, kind=kind, job_id=job_id, nodes=nodes, cause=cause
            )
        )

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[FlightEvent]:
        """The resident events, oldest first."""
        return list(self._events)

    def events_of_job(self, job_id: int) -> List[FlightEvent]:
        """Resident events of one job, oldest first."""
        return [event for event in self._events if event.job_id == job_id]

    def events_of_kind(self, kind: str) -> List[FlightEvent]:
        """Resident events of one kind, oldest first."""
        return [event for event in self._events if event.kind == kind]


class FlightObserver:
    """Engine observer projecting the job events onto a :class:`FlightRecorder`.

    The engine's events already carry what a flight record needs: the nodes
    a transition takes or vacates, and for failure evictions the failed
    node.  The projection only adds the cause: ``"scheduler"`` for the
    decision's transitions (a migrate also names the nodes it left),
    ``"node-failure:<node>"`` for evictions, nothing for submit, complete
    and cancel.  Yield changes, node events and the run and decision
    markers are not flight events.  The observer is structural (no
    base-class import), so this module stays import-cycle-free from
    ``repro.core``.
    """

    def __init__(self, recorder: FlightRecorder) -> None:
        self.recorder = recorder

    def on_event(self, event: "SimEvent") -> None:
        kind = event.kind
        if kind not in _JOB_KINDS:
            return
        if kind in _SCHEDULER_KINDS:
            cause = "scheduler"
        elif kind == "migrate":
            cause = f"scheduler:from={sorted(event.old_nodes)}"
        elif kind == "checkpoint" or kind == "failure-kill":
            cause = f"node-failure:{event.node}"
        else:
            cause = ""
        self.recorder.record(
            event.time, kind, event.spec.job_id, nodes=event.nodes, cause=cause
        )


# --------------------------------------------------------------------------- #
# Export                                                                       #
# --------------------------------------------------------------------------- #
def write_flight_jsonl(
    recorder: FlightRecorder, path: Union[str, Any]
) -> int:
    """Write the resident events as JSON lines; returns the event count.

    Lines are self-describing event objects (see
    :meth:`FlightEvent.to_dict`); :attr:`FlightRecorder.dropped` is the
    caller's to surface (the CLI prints it) — the file stays homogeneous.
    """
    events = recorder.events()
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return len(events)


def _instant(event: FlightEvent) -> Dict[str, Any]:
    return {
        "name": event.kind,
        "ph": "i",
        "s": "t",
        "pid": 1,
        "tid": event.job_id,
        "ts": event.time * 1e6,
        "args": {"cause": event.cause, "nodes": list(event.nodes)},
    }


def flight_trace_events(recorder: FlightRecorder) -> List[Dict[str, Any]]:
    """Chrome trace events with one lane (``tid``) per job.

    Per job: ``"M"`` thread-name metadata, one ``"X"`` complete slice per
    maximal running interval (opened by start/resume/migrate, closed by
    preempt/checkpoint/failure-kill/complete or the last recorded instant),
    and ``"i"`` instant markers for every non-interval transition (submit,
    admit, and each interval-closing cause).  Timestamps are simulated
    seconds scaled to microseconds, so the Perfetto timeline reads directly
    in sim-time.
    """
    events = recorder.events()
    trace: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "repro-dfrs flight recorder"},
        }
    ]
    #: job id -> (interval start time, nodes) of the currently open slice.
    open_slices: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
    named: Set[int] = set()
    last_time = events[-1].time if events else 0.0

    def close_slice(job_id: int, end: float, cause: str) -> None:
        start, nodes = open_slices.pop(job_id)
        trace.append(
            {
                "name": "run",
                "ph": "X",
                "pid": 1,
                "tid": job_id,
                "ts": start * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "args": {"nodes": list(nodes), "until": cause},
            }
        )

    for event in events:
        job_id = event.job_id
        if job_id not in named:
            named.add(job_id)
            trace.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": job_id,
                    "args": {"name": f"job {job_id}"},
                }
            )
        if event.kind in _OPENING_KINDS:
            if job_id in open_slices:
                # A migrate re-places a running job within one event: close
                # the old slice at the migration instant and open the new.
                close_slice(job_id, event.time, event.kind)
            open_slices[job_id] = (event.time, event.nodes)
            if event.kind != "start":
                trace.append(_instant(event))
        elif event.kind in _CLOSING_KINDS:
            if job_id in open_slices:
                close_slice(job_id, event.time, event.kind)
            if event.kind != "complete":
                trace.append(_instant(event))
        else:  # submit / admit
            trace.append(_instant(event))
    # Ring truncation or an unfinished run can leave slices open; close them
    # at the last recorded instant so the export is always well-formed.
    for job_id in sorted(open_slices):
        close_slice(job_id, max(last_time, open_slices[job_id][0]), "open")
    return trace


def write_flight_trace(
    recorder: FlightRecorder, path: Union[str, Any]
) -> None:
    """Write the per-job-lane timeline as a Chrome trace-event JSON file."""
    payload = {
        "traceEvents": flight_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro-dfrs flight recorder",
            "events": len(recorder),
            "dropped": recorder.dropped,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
