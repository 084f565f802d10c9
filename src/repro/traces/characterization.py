"""Workload characterization in the terms used by the paper's motivation.

The paper's introduction justifies DFRS with observations about real HPC
workloads: "more than 95% of the jobs use under 40% of a node's memory, and
more than 27% of the jobs effectively use less than 50% of the node's CPU
resource".  :func:`characterize_stream` computes exactly those quantities
(and a few more) for any job stream — a :class:`~repro.traces.JobSource`'s
``jobs(cluster)`` or a materialized workload's ``jobs`` list — in one
bounded-memory pass, so that synthetic traces can be checked against the
assumptions they are supposed to embody and real SWF archives can be
profiled before being fed to the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cluster import Cluster
from ..core.job import JobSpec
from ..exceptions import WorkloadError
from ..metrics import Moments, QuantileSketch

__all__ = [
    "WorkloadCharacterization",
    "characterize_stream",
    "characterization_table",
]

#: Accuracy of the runtime median/p95 sketch: within 0.1 % of the exact
#: nearest-rank values.
_RUNTIME_RELATIVE_ERROR = 0.001

#: The §I cut-offs: a job's per-task memory requirement below 40 % of a node,
#: its per-task CPU need below 50 % of a node.
MEMORY_THRESHOLD = 0.4
CPU_THRESHOLD = 0.5


@dataclass(frozen=True)
class WorkloadCharacterization:
    """Descriptive profile of one workload."""

    name: str
    num_jobs: int
    offered_load: float
    span_seconds: float
    #: Fraction of jobs with a single task.
    serial_fraction: float
    #: Fraction of jobs whose per-task memory requirement is below 40 % (§I).
    fraction_memory_under_40pct: float
    #: Fraction of jobs whose per-task CPU need is below 50 % (§I).
    fraction_cpu_under_50pct: float
    mean_tasks: float
    max_tasks: int
    mean_runtime_seconds: float
    median_runtime_seconds: float
    p95_runtime_seconds: float
    mean_interarrival_seconds: float
    #: Total node-seconds of work requested (Σ tasks × runtime).
    total_demand_node_seconds: float


def characterize_stream(
    specs: Iterable[JobSpec],
    cluster: Cluster,
    *,
    name: str = "stream",
) -> Tuple[WorkloadCharacterization, List[Tuple[str, int]]]:
    """Profile a job stream with the paper's §I statistics in one bounded-memory pass.

    Every statistic is accumulated online (:mod:`repro.metrics`), so a
    multi-million-job SWF archive is profiled without ever being resident.
    The memory and CPU fractions count jobs below the §I cut-offs,
    :data:`MEMORY_THRESHOLD` and :data:`CPU_THRESHOLD`.  The runtime
    median/p95 come from a :class:`~repro.metrics.QuantileSketch` and are
    within 0.1 % of the exact nearest-rank values; everything else is exact,
    and submit order does not matter.
    Returns the characterization together with the job-width histogram:
    ``(label, count)`` pairs in power-of-two buckets, in increasing width
    order (e.g. ``[("1", 120), ("2-3", 18), ("4-7", 30), ...]``), empty
    buckets omitted.  An empty stream raises :class:`WorkloadError`.
    """
    tasks = Moments()
    runtimes = Moments()
    runtime_sketch = QuantileSketch(relative_error=_RUNTIME_RELATIVE_ERROR)
    serial = 0
    memory_under = 0
    cpu_under = 0
    demand = 0.0
    first_submit: Optional[float] = None
    last_submit = -float("inf")
    width_buckets: Dict[int, int] = {}

    for spec in specs:
        tasks.add(spec.num_tasks)
        runtimes.add(spec.execution_time)
        runtime_sketch.add(spec.execution_time)
        if spec.num_tasks == 1:
            serial += 1
        if spec.mem_requirement < MEMORY_THRESHOLD:
            memory_under += 1
        if spec.cpu_need < CPU_THRESHOLD:
            cpu_under += 1
        demand += spec.num_tasks * spec.execution_time
        # Track the extremes rather than first/last so that a stray
        # out-of-order record (archive traces are submit-ordered only by
        # convention) yields the span/load of the sorted trace instead of a
        # silently wrong one.
        if first_submit is None or spec.submit_time < first_submit:
            first_submit = spec.submit_time
        if spec.submit_time > last_submit:
            last_submit = spec.submit_time
        bucket = spec.num_tasks.bit_length() - 1
        width_buckets[bucket] = width_buckets.get(bucket, 0) + 1

    num_jobs = tasks.count
    if num_jobs == 0 or first_submit is None:
        raise WorkloadError(f"stream {name!r} is empty")
    span = last_submit - first_submit
    # Mean inter-arrival over the *sorted* submits telescopes to
    # span / (n - 1) — exactly what np.diff(sorted submits).mean() computes.
    mean_interarrival = span / (num_jobs - 1) if num_jobs > 1 else 0.0
    load = demand / (cluster.num_nodes * span) if span > 0 else float("inf")

    histogram: List[Tuple[str, int]] = []
    for bucket in sorted(width_buckets):
        low = 2**bucket
        high = 2 ** (bucket + 1) - 1
        label = str(low) if low == high else f"{low}-{high}"
        histogram.append((label, width_buckets[bucket]))

    profile = WorkloadCharacterization(
        name=name,
        num_jobs=num_jobs,
        offered_load=load,
        span_seconds=span,
        serial_fraction=serial / num_jobs,
        fraction_memory_under_40pct=memory_under / num_jobs,
        fraction_cpu_under_50pct=cpu_under / num_jobs,
        mean_tasks=tasks.mean,
        max_tasks=int(tasks.maximum),
        mean_runtime_seconds=runtimes.mean,
        median_runtime_seconds=runtime_sketch.quantile(0.5),
        p95_runtime_seconds=runtime_sketch.quantile(0.95),
        mean_interarrival_seconds=mean_interarrival,
        total_demand_node_seconds=demand,
    )
    return profile, histogram


def characterization_table(
    characterizations: Sequence[WorkloadCharacterization],
) -> str:
    """Fixed-width text table of several workload profiles, one per row."""
    if not characterizations:
        raise WorkloadError("need at least one characterization to render a table")
    headers = [
        "workload",
        "jobs",
        "load",
        "serial%",
        "mem<40%",
        "cpu<50%",
        "mean tasks",
        "median runtime (s)",
    ]
    rows = [
        [
            profile.name,
            str(profile.num_jobs),
            f"{profile.offered_load:.2f}",
            f"{100 * profile.serial_fraction:.0f}",
            f"{100 * profile.fraction_memory_under_40pct:.0f}",
            f"{100 * profile.fraction_cpu_under_50pct:.0f}",
            f"{profile.mean_tasks:.1f}",
            f"{profile.median_runtime_seconds:.0f}",
        ]
        for profile in characterizations
    ]
    widths = [
        max(len(headers[i]), max(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
