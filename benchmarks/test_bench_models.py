"""Benchmark: models-seam engine overhead (model-free vs modeled runs).

Two claims:

1. **No default-path regression** — threading the overhead/execution-time
   model hooks through the engine must not slow down a model-free run: the
   ``None`` checks on the charge sites and at admission are the only cost.
   The proxy is a model-free run vs the same run with explicit default
   models (``none``/``exact``, which the scenario layer would demote):
   results must be *identical* and the runtime ratio bounded well below
   noise-free regressions.

2. **Bounded modeled overhead** — an active memory-linear model consulted
   at every preemption/migration/resume instant costs a bounded constant
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
from repro.models import (
    ExactExecutionTimeModel,
    MemoryLinearOverheadModel,
    NoOverheadModel,
)
from repro.schedulers.registry import create_scheduler
from repro.traces.lublin import LublinWorkloadGenerator

pytestmark = pytest.mark.bench

#: Both the default-model and the active-model run do strictly more work
#: than the model-free run; the 3x envelope catches asymptotic regressions
#: (the observed overhead is a few percent), not constant factors.
MAX_MODEL_OVERHEAD = 3.0

CLUSTER = Cluster(32, 4, 8.0)


def _num_jobs() -> int:
    if os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "quick":
        return 80
    return 150


def _simulate(algorithm: str, config: SimulationConfig):
    workload = LublinWorkloadGenerator(CLUSTER).generate(_num_jobs(), seed=2010)
    simulator = Simulator(CLUSTER, create_scheduler(algorithm), config)
    start = time.perf_counter()
    result = simulator.run(workload.jobs)
    elapsed = time.perf_counter() - start
    assert result.num_jobs == _num_jobs()
    return elapsed, result


def _configs():
    return {
        "model-free": SimulationConfig(record_scheduler_times=False),
        "default-models": SimulationConfig(
            record_scheduler_times=False,
            overhead_model=NoOverheadModel(),
            execution_time_model=ExactExecutionTimeModel(),
        ),
        "memory-linear": SimulationConfig(
            record_scheduler_times=False,
            overhead_model=MemoryLinearOverheadModel(seconds_per_gb=0.1),
        ),
    }


def test_models_overhead(report_artifact):
    rows = []
    for algorithm in ("greedy-pmtn-migr", "dynmcb8-asap-per-600"):
        configs = _configs()
        # Warm once (imports, numpy caches), then measure.
        _simulate(algorithm, configs["model-free"])
        seconds = {}
        results = {}
        for label, config in configs.items():
            best = None
            for _ in range(2):
                elapsed, result = _simulate(algorithm, config)
                best = elapsed if best is None else min(best, elapsed)
            seconds[label] = best
            results[label] = result

        # Explicit default models are byte-identical to no models at all.
        assert results["default-models"].jobs == results["model-free"].jobs
        assert results["default-models"].costs == results["model-free"].costs
        # The active model actually charged something on these preempting
        # algorithms — the bench measures a live code path, not a no-op.
        assert results["memory-linear"].costs.overhead_seconds > 0.0

        base = max(seconds["model-free"], 1e-9)
        row = [algorithm, f"{seconds['model-free']:.3f}"]
        for label in ("default-models", "memory-linear"):
            ratio = seconds[label] / base
            row.extend([f"{seconds[label]:.3f}", f"{ratio:.2f}"])
            assert ratio < MAX_MODEL_OVERHEAD, (
                f"{algorithm}: {label} run {ratio:.2f}x slower than "
                f"model-free (bound {MAX_MODEL_OVERHEAD}x)"
            )
        rows.append(row)

    text = format_table(
        ["algorithm", "model-free (s)", "default models (s)", "ratio",
         "memory-linear (s)", "ratio"],
        rows,
        title=(
            f"Models-seam engine overhead ({_num_jobs()} Lublin jobs, "
            f"32 nodes)"
        ),
    )
    report_artifact("models_overhead", text)
