"""Event types and the simulation event queue.

The engine is event driven: between two consecutive events every running job
has a constant yield, so job progress can be integrated analytically.  Events
are job submissions, job completions, and scheduler wake-ups (periodic ticks
and backoff retries).  Completions are not stored in the queue — they are
recomputed from job state whenever allocations change — so the queue never
needs invalidation.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(enum.Enum):
    """Kinds of simulation events, ordered by processing priority at a tick."""

    #: A job's work reached zero (resources are released before scheduling).
    JOB_COMPLETION = "completion"
    #: A node became unavailable (platform failure trace).
    NODE_DOWN = "node-down"
    #: A previously failed node was repaired (platform failure trace).
    NODE_UP = "node-up"
    #: A new job enters the system.
    JOB_SUBMISSION = "submission"
    #: The scheduler asked to be re-invoked (periodic tick or backoff retry).
    SCHEDULER_WAKEUP = "wakeup"


#: Processing order of simultaneous events: completions free resources first,
#: then node availability changes apply (downs evict before ups restore, so
#: the scheduler sees a consistent platform), then submissions are admitted,
#: then wake-ups fire.  Only the relative order matters; the pre-existing
#: types keep their relative order, so default-mode runs are unchanged.
_TYPE_ORDER = {
    EventType.JOB_COMPLETION: 0,
    EventType.NODE_DOWN: 1,
    EventType.NODE_UP: 2,
    EventType.JOB_SUBMISSION: 3,
    EventType.SCHEDULER_WAKEUP: 4,
}


@dataclass(frozen=True, order=False)
class Event:
    """A single simulation event.

    ``job_id`` is set for submissions and completions, ``None`` otherwise;
    ``node`` is set for node availability events, ``None`` otherwise.
    """

    time: float
    event_type: EventType
    job_id: Optional[int] = None
    node: Optional[int] = None


class EventQueue:
    """Min-heap of future events keyed by (time, type order, insertion order)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Insert an event."""
        if not math.isfinite(event.time):
            raise ValueError(f"event time must be finite, got {event.time}")
        heapq.heappush(
            self._heap,
            (event.time, _TYPE_ORDER[event.event_type], next(self._counter), event),
        )

    def peek_time(self) -> float:
        """Time of the earliest queued event, ``+inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else math.inf

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def pop_until(self, time: float) -> List[Event]:
        """Remove and return every event with ``event.time <= time``."""
        events: List[Event] = []
        while self._heap and self._heap[0][0] <= time + 1e-12:
            events.append(self.pop())
        return events
