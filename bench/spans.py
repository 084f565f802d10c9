"""In-memory span recorder for the benchmark's own tracing.

A span is ``[name, start, end, parent, run]``: perf-counter seconds, the index
of the span that was open when it started (-1 for a root) and the identifier
of the run (one timed unit) it belongs to.  Everything the benchmark traces
runs on one thread, so spans nest in time and a stack gives the parent.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover; :func:`self_times` computes it after the run, never in
the hot path.  Spans stay in memory until :func:`write_chrome_trace` dumps
them when the benchmark ends.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Tuple

NAME, START, END, PARENT, RUN = range(5)


class SpanRecorder:
    """Append-only span list with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        #: Identifier stamped on every span recorded from now on.
        self.run = 0

    def begin(self, name: str) -> int:
        """Open a span that may get children; returns its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, self.run])
        self._open.append(index)
        return index

    def end(self, index: int) -> float:
        """Close the innermost open span (must be ``index``); returns its duration."""
        now = perf_counter()
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order (open: {self._open})")
        self._open.pop()
        span = self.spans[index]
        span[END] = now
        return now - span[START]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished leaf span timed by the caller (the cheap path)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, self.run])


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus the interval covered by children.

    Children are clipped to the parent and their union is taken, so
    overlapping or overhanging children never make a self time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0 and span[END] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        if span[END] is None:
            result.append(0.0)
            continue
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def totals(spans: List[list], run: int) -> Dict[str, Tuple[float, float, int]]:
    """``name -> (total seconds, self seconds, count)`` over one run's spans."""
    selfs = self_times(spans)
    result: Dict[str, Tuple[float, float, int]] = {}
    for span, self_time in zip(spans, selfs):
        if span[RUN] != run or span[END] is None:
            continue
        total, self_total, count = result.get(span[NAME], (0.0, 0.0, 0))
        result[span[NAME]] = (
            total + span[END] - span[START],
            self_total + self_time,
            count + 1,
        )
    return result


def durations(spans: List[list], run: int, name: str) -> List[float]:
    """Durations of every finished span called ``name`` in ``run``."""
    return [
        span[END] - span[START]
        for span in spans
        if span[NAME] == name and span[RUN] == run and span[END] is not None
    ]


def write_chrome_trace(spans: List[list], path: str, limit: int = 200_000) -> int:
    """Write spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto).

    One process row per run id; ``args.parent`` names the causing span.
    Returns the number of events written (capped at ``limit``).
    """
    finished = [span for span in spans if span[END] is not None][:limit]
    origin = min((span[START] for span in finished), default=0.0)
    events = [
        {
            "name": span[NAME],
            "ph": "X",
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "pid": span[RUN],
            "tid": 0,
            "args": {
                "parent": spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
            },
        }
        for span in finished
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)
