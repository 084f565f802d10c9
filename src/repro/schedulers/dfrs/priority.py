"""Virtual-time based job priority (paper §III-A).

The priority of a job is::

    priority = max(30, flow_time) / virtual_time ** 2

where the *flow time* is the time since submission and the *virtual time* is
the integral of the job's yield since submission (its "subjective" execution
time so far).  A job that has never received CPU has infinite priority, which
forces its admission; the flow-time numerator guarantees that paused jobs are
eventually resumed (no starvation); the square gives short-running jobs an
edge.  Jobs are considered for pausing in *increasing* priority order and for
resuming in *decreasing* priority order.  The paper reports that exponent 1
gives markedly inferior results, so the square is fixed.
"""

from __future__ import annotations

import math
from typing import Iterable, List

from ...core.context import JobView
from ...metrics import STRETCH_BOUND_SECONDS

__all__ = [
    "job_priority",
    "priority_of_view",
    "sort_by_increasing_priority",
    "sort_by_decreasing_priority",
]


def job_priority(flow_time: float, virtual_time: float) -> float:
    """Priority value of a job; ``inf`` for jobs with zero virtual time."""
    if flow_time < 0:
        raise ValueError(f"flow_time must be >= 0, got {flow_time}")
    if virtual_time < 0:
        raise ValueError(f"virtual_time must be >= 0, got {virtual_time}")
    if virtual_time == 0.0:
        return math.inf
    return max(STRETCH_BOUND_SECONDS, flow_time) / (virtual_time ** 2.0)


def priority_of_view(view: JobView, now: float) -> float:
    """Priority of a job view at time ``now`` (see :func:`job_priority`); the
    flow time is clamped as by :meth:`SchedulingContext.flow_time
    <repro.core.context.SchedulingContext.flow_time>`."""
    flow = now - view.submit_time
    return job_priority(flow if flow > 0.0 else 0.0, view.virtual_time)


def sort_by_increasing_priority(views: Iterable[JobView], now: float) -> List[JobView]:
    """Jobs ordered from first-to-pause to last-to-pause at time ``now``.

    Ties are broken by submission time (earlier submissions are paused later)
    and then by job id, so the ordering is deterministic.
    """
    return sorted(
        views, key=lambda v: (priority_of_view(v, now), -v.submit_time, -v.job_id)
    )


def sort_by_decreasing_priority(views: Iterable[JobView], now: float) -> List[JobView]:
    """Jobs ordered from first-to-resume to last-to-resume at time ``now``."""
    return list(reversed(sort_by_increasing_priority(views, now)))
