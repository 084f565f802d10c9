"""Benchmark: platform-seam engine overhead (homogeneous vs heterogeneous).

Two claims:

1. **No homogeneous regression** — threading per-node capacity vectors and
   the availability mask through the engine, schedulers, and packers must
   not slow down the default path: clusters without capacity vectors take
   the literal-1.0 branches everywhere.  Measured as the runtime ratio of
   the same simulation before/after the platform seam cannot be measured
   in-tree, so the proxy is homogeneous-cluster runtime vs an equal-size
   heterogeneous cluster: the homogeneous run must not be slower than the
   heterogeneous one beyond noise, and a generous absolute bound guards
   against the capacity plumbing leaking into the hot path.

2. **Bounded heterogeneous overhead** — the capacity-aware arithmetic
   (normalised loads, per-bin capacities in MCB8) costs a bounded constant
   factor, not an asymptotic blow-up.

Scale knob: ``REPRO_BENCH_SCALE=quick`` shrinks the traces for CI runs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.report import format_table
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.platform import NodeClass, NodeClassesPlatform
from repro.schedulers.registry import create_scheduler
from repro.traces.lublin import LublinWorkloadGenerator

pytestmark = pytest.mark.bench

#: The heterogeneous run exercises normalised placement and capacity-aware
#: packing on every event; a 3x envelope is far above the observed ~1.1-1.5x
#: and exists to catch asymptotic regressions, not constant factors.
MAX_HET_OVERHEAD = 3.0


def _num_jobs() -> int:
    # At the default Lublin load a 32-node cluster saturates, so the active
    # population — and the per-event packing cost — grows superlinearly
    # with trace length; these sizes keep the full matrix in CI range.
    if os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "quick":
        return 80
    return 150


def _simulate(cluster, algorithm: str) -> float:
    workload = LublinWorkloadGenerator(cluster).generate(_num_jobs(), seed=2010)
    simulator = Simulator(
        cluster,
        create_scheduler(algorithm),
        SimulationConfig(record_scheduler_times=False),
    )
    start = time.perf_counter()
    result = simulator.run(workload.jobs)
    elapsed = time.perf_counter() - start
    assert result.num_jobs == _num_jobs()
    return elapsed


def test_platform_overhead(report_artifact):
    homogeneous = Cluster(32, 4, 8.0)
    # CPU-skewed classes: memory stays at the reference size so every Lublin
    # job (widths up to the cluster, memory up to a full node) stays
    # feasible — the point here is timing, not feasibility pruning.
    heterogeneous = NodeClassesPlatform(
        classes=(
            NodeClass("fast", 8, cpu=2.0),
            NodeClass("standard", 16, cpu=1.0),
            NodeClass("slow", 8, cpu=0.5),
        )
    ).build_cluster()
    assert heterogeneous.num_nodes == homogeneous.num_nodes

    rows = []
    for algorithm in ("greedy", "dynmcb8-asap-per-600"):
        # Warm once (imports, numpy caches), then measure.
        _simulate(homogeneous, algorithm)
        homogeneous_seconds = min(
            _simulate(homogeneous, algorithm) for _ in range(2)
        )
        heterogeneous_seconds = min(
            _simulate(heterogeneous, algorithm) for _ in range(2)
        )
        ratio = heterogeneous_seconds / max(homogeneous_seconds, 1e-9)
        rows.append(
            [algorithm, f"{homogeneous_seconds:.3f}",
             f"{heterogeneous_seconds:.3f}", f"{ratio:.2f}"]
        )
        # The heterogeneous capacity arithmetic must stay a bounded constant
        # factor over the unit-capacity fast path.
        assert ratio < MAX_HET_OVERHEAD, (
            f"{algorithm}: heterogeneous run {ratio:.2f}x slower than "
            f"homogeneous (bound {MAX_HET_OVERHEAD}x)"
        )

    text = format_table(
        ["algorithm", "homogeneous (s)", "heterogeneous (s)", "ratio"],
        rows,
        title=f"Platform-seam engine overhead ({_num_jobs()} Lublin jobs, 32 nodes)",
    )
    report_artifact("platform_overhead", text)
