"""Workload container shared by the synthetic and trace-based generators.

A :class:`Workload` couples a list of :class:`~repro.core.job.JobSpec` with
the cluster it was generated for, plus a human-readable name used in reports.
It also implements the *offered load* computation of the paper (§IV-C): the
total node-seconds requested by the jobs divided by the node-seconds the
cluster offers over the submission span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List

from ..core.cluster import Cluster
from ..core.job import JobSpec
from ..exceptions import WorkloadError

__all__ = ["Workload", "offered_load"]


def offered_load(specs: Iterable[JobSpec], cluster: Cluster) -> float:
    """Offered load of a job list or stream on a cluster, in one O(1)-memory pass.

    Defined as ``sum_j(tasks_j × runtime_j) / (N × span)`` where the span is
    ``max(submits) - min(submits)``, so a stray out-of-order record yields
    the same load as sorting would.  Values above 1 mean the cluster cannot
    keep up even at perfect packing; ``0.0`` for an empty stream, and ``inf``
    for a degenerate span.
    """
    demand = 0.0
    earliest = math.inf
    latest = -math.inf
    empty = True
    for spec in specs:
        empty = False
        demand += spec.num_tasks * spec.execution_time
        if spec.submit_time < earliest:
            earliest = spec.submit_time
        if spec.submit_time > latest:
            latest = spec.submit_time
    if empty:
        return 0.0
    span = latest - earliest
    if span <= 0:
        return float("inf")
    return demand / (cluster.num_nodes * span)


@dataclass
class Workload:
    """A named list of jobs targeted at a specific cluster."""

    name: str
    cluster: Cluster
    jobs: List[JobSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [spec.job_id for spec in self.jobs]
        if len(ids) != len(set(ids)):
            raise WorkloadError(f"workload {self.name!r} contains duplicate job ids")
        self.jobs = sorted(self.jobs, key=lambda spec: (spec.submit_time, spec.job_id))

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def span_seconds(self) -> float:
        """Time between the first and the last submission."""
        if not self.jobs:
            return 0.0
        submits = [spec.submit_time for spec in self.jobs]
        return max(submits) - min(submits)

    def load(self) -> float:
        """Offered load of this workload on its cluster."""
        return offered_load(self.jobs, self.cluster)

    def segments(self, duration_seconds: float) -> List["Workload"]:
        """Split the workload into consecutive segments of fixed duration.

        Used to split the HPC2N trace into 1-week segments (§IV-C).  Each
        segment's submission times are rebased to start at zero and job ids
        are preserved.  Empty segments are dropped.
        """
        if duration_seconds <= 0:
            raise WorkloadError(
                f"segment duration must be > 0, got {duration_seconds}"
            )
        if not self.jobs:
            return []
        start = self.jobs[0].submit_time
        buckets: dict = {}
        for spec in self.jobs:
            index = int((spec.submit_time - start) // duration_seconds)
            buckets.setdefault(index, []).append(spec)
        segments = []
        for index in sorted(buckets):
            base = start + index * duration_seconds
            rebased = [
                replace(spec, submit_time=spec.submit_time - base)
                for spec in buckets[index]
            ]
            segments.append(
                Workload(f"{self.name}-week{index:03d}", self.cluster, rebased)
            )
        return segments
