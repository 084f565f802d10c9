"""The materialized workload profile, kept as the oracle for ``characterize_stream``.

``characterize`` and ``size_histogram`` are the numpy implementations that
``repro.traces`` shipped beside the streaming pass; the product is now
``characterize_stream`` alone, and ``tests/traces/test_characterization.py``
compares it against these.  Keep them as they are: they are the reference,
not code to tidy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import WorkloadError
from repro.traces import Workload, WorkloadCharacterization


def characterize(
    workload: Workload,
    *,
    memory_threshold: float = 0.4,
    cpu_threshold: float = 0.5,
) -> WorkloadCharacterization:
    """Profile a workload with the paper's motivating statistics.

    ``memory_threshold`` and ``cpu_threshold`` default to the §I thresholds
    (40 % of node memory, 50 % of node CPU) but can be changed to study other
    cut-offs.
    """
    if not workload.jobs:
        raise WorkloadError(f"workload {workload.name!r} is empty")
    if not (0.0 < memory_threshold <= 1.0):
        raise WorkloadError(f"memory_threshold must be in (0, 1], got {memory_threshold}")
    if not (0.0 < cpu_threshold <= 1.0):
        raise WorkloadError(f"cpu_threshold must be in (0, 1], got {cpu_threshold}")

    tasks = np.array([spec.num_tasks for spec in workload.jobs], dtype=float)
    runtimes = np.array([spec.execution_time for spec in workload.jobs], dtype=float)
    memory = np.array([spec.mem_requirement for spec in workload.jobs], dtype=float)
    cpu = np.array([spec.cpu_need for spec in workload.jobs], dtype=float)
    submits = np.array(sorted(spec.submit_time for spec in workload.jobs), dtype=float)
    interarrivals = np.diff(submits) if submits.size > 1 else np.array([0.0])

    return WorkloadCharacterization(
        name=workload.name,
        num_jobs=len(workload.jobs),
        offered_load=workload.load(),
        span_seconds=workload.span_seconds,
        serial_fraction=float(np.mean(tasks == 1)),
        fraction_memory_under_40pct=float(np.mean(memory < memory_threshold)),
        fraction_cpu_under_50pct=float(np.mean(cpu < cpu_threshold)),
        mean_tasks=float(tasks.mean()),
        max_tasks=int(tasks.max()),
        mean_runtime_seconds=float(runtimes.mean()),
        median_runtime_seconds=float(np.median(runtimes)),
        p95_runtime_seconds=float(np.percentile(runtimes, 95)),
        mean_interarrival_seconds=float(interarrivals.mean()),
        total_demand_node_seconds=float(np.dot(tasks, runtimes)),
    )


def _labeled_width_histogram(counts: Dict[int, int]) -> List[Tuple[str, int]]:
    """Power-of-two bucket counts → ``(label, count)`` pairs, width order.

    The oracle's copy of the label format, used by :func:`size_histogram`
    only; ``characterize_stream`` inlines its own.
    """
    histogram: List[Tuple[str, int]] = []
    for bucket in sorted(counts):
        low = 2**bucket
        high = 2 ** (bucket + 1) - 1
        label = str(low) if low == high else f"{low}-{high}"
        histogram.append((label, counts[bucket]))
    return histogram


def size_histogram(workload: Workload) -> List[Tuple[str, int]]:
    """Histogram of job widths in power-of-two buckets.

    Returns ``(label, count)`` pairs in increasing width order, e.g.
    ``[("1", 120), ("2-3", 18), ("4-7", 30), ...]``.  Buckets with zero jobs
    are omitted.
    """
    if not workload.jobs:
        raise WorkloadError(f"workload {workload.name!r} is empty")
    counts: Dict[int, int] = {}
    for spec in workload.jobs:
        bucket = spec.num_tasks.bit_length() - 1
        counts[bucket] = counts.get(bucket, 0) + 1
    return _labeled_width_histogram(counts)
