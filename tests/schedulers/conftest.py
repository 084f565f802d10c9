"""Helpers for scheduler unit tests: build contexts without the engine."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.cluster import Cluster
from repro.core.context import JobView, SchedulingContext
from repro.core.job import JobState


def view(
    job_id: int,
    *,
    tasks: int = 1,
    cpu: float = 1.0,
    mem: float = 0.1,
    submit: float = 0.0,
    state: JobState = JobState.PENDING,
    vt: float = 0.0,
    assignment: Optional[Tuple[int, ...]] = None,
    current_yield: float = 0.0,
    runtime_estimate: Optional[float] = None,
    remaining_estimate: Optional[float] = None,
) -> JobView:
    """Terse JobView builder for hand-written scheduling scenarios (a view's
    flow time is its context's ``time`` minus ``submit``)."""
    return JobView(
        job_id=job_id,
        num_tasks=tasks,
        cpu_need=cpu,
        mem_requirement=mem,
        submit_time=submit,
        state=state,
        virtual_time=vt,
        assignment=assignment,
        current_yield=current_yield,
        last_assignment=assignment,
        runtime_estimate=runtime_estimate,
        remaining_runtime_estimate=remaining_estimate,
    )


def context(
    views: Iterable[JobView],
    *,
    cluster: Optional[Cluster] = None,
    time: float = 0.0,
    submitted: Optional[List[int]] = None,
    completed: Optional[List[int]] = None,
    is_wakeup: bool = False,
) -> SchedulingContext:
    """Build a SchedulingContext from job views."""
    views = list(views)
    return SchedulingContext(
        time=time,
        cluster=cluster or Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0),
        jobs={v.job_id: v for v in views},
        submitted=submitted if submitted is not None else [
            v.job_id for v in views if v.is_pending
        ],
        completed=completed or [],
        is_wakeup=is_wakeup,
    )
