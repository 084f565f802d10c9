"""Benchmark E6: parallel experiment runner speedup.

The ``workers=N`` fan-out of the *instances x algorithms* grid must produce
results identical to the serial loop while scaling across CPUs.  (The
O(active jobs) event loop's 4-5x gain over the seed's full-scan loop was
measured here by PR 1; that loop was removed in PR 12, and engine throughput
is now tracked by ``bench/run.py`` and ``test_bench_engine_throughput.py``.)

Scale knob: ``REPRO_BENCH_SCALE=quick`` shrinks the grid for CI-style runs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.cluster import Cluster
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_instance, run_instances
from repro.workloads.lublin import LublinWorkloadGenerator

pytestmark = pytest.mark.bench


@pytest.mark.benchmark(group="engine-scaling")
def test_parallel_runner_scaling(report_artifact):
    cluster = Cluster(64, 4, 8.0)
    generator = LublinWorkloadGenerator(cluster)
    quick = os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "quick"
    num_instances = 4 if quick else 8
    num_jobs = 150 if quick else 300
    workloads = [
        generator.generate(num_jobs, seed=2010 + i, name=f"par-{i}")
        for i in range(num_instances)
    ]
    algorithms = ["fcfs", "easy"]
    cpus = os.cpu_count() or 1
    # Always exercise a real pool (even on one CPU the results-identical
    # check is meaningful); only expect a speedup when CPUs exist to scale
    # across.
    workers = max(2, min(cpus, num_instances))

    start = time.perf_counter()
    serial = [
        run_instance(w, algorithms, penalty_seconds=300.0) for w in workloads
    ]
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_instances(
        workloads, algorithms, penalty_seconds=300.0, workers=workers
    )
    parallel_seconds = time.perf_counter() - start

    for a, b in zip(serial, parallel):
        assert a.workload_name == b.workload_name
        assert a.max_stretches() == b.max_stretches()
        for name in algorithms:
            assert a.results[name].makespan == b.results[name].makespan

    speedup = serial_seconds / parallel_seconds
    report_artifact(
        "parallel_runner_scaling",
        format_table(
            ["workers", "serial (s)", "parallel (s)", "speedup"],
            [[workers, serial_seconds, parallel_seconds, speedup]],
            title=(
                f"Parallel runner: {num_instances} instances x "
                f"{len(algorithms)} algorithms"
            ),
            float_format="{:.2f}",
        ),
    )
    if cpus >= 4:
        # Loose lower bound: pool start-up and result pickling eat into the
        # ideal N-x scaling, but the fan-out must clearly beat serial.  On
        # two vCPUs that overhead is the whole margin (the bound failed there
        # at every commit), so only hosts with cores to spare are held to it.
        assert speedup > 1.3
