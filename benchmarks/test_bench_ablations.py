"""Ablation benchmarks for the design choices called out in DESIGN.md §4.

These go beyond the paper's tables and quantify three choices the paper makes
without a dedicated experiment:

* **Packing heuristic** — MCB8's resource balancing vs. plain first-fit /
  best-fit decreasing, measured as the minimum yield achievable on identical
  packing instances (the paper justifies MCB8 by citing prior work).
* **Priority exponent** — the square in ``max(30, flow)/vt²`` vs. a linear
  exponent (the paper reports the square is "markedly" better but shows no
  numbers).
* **Scheduling period** — T ∈ {60, 600, 3600} for DYNMCB8-ASAP-PER (§III-B
  states T = 600 is a good compromise).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import numpy as np
import pytest

pytestmark = pytest.mark.bench

from repro.analysis.report import format_table
from repro.campaign.executor import run_instance
from repro.campaign.studies import lublin_source
from repro.core.cluster import Cluster
from repro.packing.first_fit import best_fit_decreasing_pack, first_fit_decreasing_pack
from repro.packing.mcb8 import mcb8_pack
from repro.packing.yield_search import PackingJob, maximize_min_yield
from repro.schedulers.dfrs import priority as priority_module
from repro.traces import (
    LublinWorkloadGenerator,
    MemoryRequirementModel,
    scale_to_load,
)


def _packing_instances(num_instances: int, jobs_per_instance: int, seed: int):
    """Random packing instances drawn from the paper's job distributions."""
    rng = np.random.default_rng(seed)
    memory_model = MemoryRequirementModel()
    instances: List[List[PackingJob]] = []
    for _ in range(num_instances):
        jobs = []
        for job_id in range(jobs_per_instance):
            tasks = int(rng.choice([1, 2, 4, 8]))
            cpu = 0.25 if tasks == 1 else 1.0
            jobs.append(
                PackingJob(
                    job_id=job_id,
                    num_tasks=tasks,
                    cpu_need=cpu,
                    mem_requirement=memory_model.memory_requirement(rng),
                )
            )
        instances.append(jobs)
    return instances


@pytest.mark.benchmark(group="ablation")
def test_ablation_packing_heuristic(benchmark, report_artifact):
    """MCB8 should achieve a minimum yield at least as high as FFD/BFD."""
    instances = _packing_instances(num_instances=25, jobs_per_instance=24, seed=9)
    packers = {
        "mcb8": mcb8_pack,
        "first-fit-decreasing": first_fit_decreasing_pack,
        "best-fit-decreasing": best_fit_decreasing_pack,
    }

    def run_all() -> Dict[str, List[float]]:
        yields: Dict[str, List[float]] = {name: [] for name in packers}
        for jobs in instances:
            for name, packer in packers.items():
                result = maximize_min_yield(jobs, 16, packer=packer)
                yields[name].append(result.yield_value if result.success else 0.0)
        return yields

    yields = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [name, float(np.mean(values)), float(np.min(values))]
        for name, values in yields.items()
    ]
    report_artifact(
        "ablation_packing",
        format_table(
            ["packer", "mean min-yield", "worst min-yield"],
            rows,
            title="Ablation: packing heuristic vs. achievable minimum yield",
        ),
    )
    assert np.mean(yields["mcb8"]) >= np.mean(yields["first-fit-decreasing"]) - 0.02
    assert np.mean(yields["mcb8"]) >= np.mean(yields["best-fit-decreasing"]) - 0.02


@pytest.mark.benchmark(group="ablation")
def test_ablation_priority_exponent(benchmark, bench_config, report_artifact):
    """Compare the squared priority against a linear one on real runs."""
    config = replace(
        bench_config,
        num_traces=min(bench_config.num_traces, 2),
        load_levels=(0.7,),
        algorithms=("greedy-pmtn",),
    )

    def run_all():
        return {
            "exponent=2 (paper)": _run_priority_ablation(config, 2.0),
            "exponent=1": _run_priority_ablation(config, 1.0),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[name, value] for name, value in results.items()]
    report_artifact(
        "ablation_priority_exponent",
        format_table(
            ["priority function", "mean max stretch (greedy-pmtn, load 0.7)"],
            rows,
            title="Ablation: priority exponent",
        ),
    )
    for value in results.values():
        assert value >= 1.0


def _instances_at_load(config, load: float):
    return [
        scale_to_load(workload, load)
        for workload in lublin_source(config).workloads(config.cluster)
    ]


def _run_priority_ablation(config, exponent: float) -> float:
    """Mean max stretch of GREEDY-PMTN with a patched priority exponent."""
    import repro.schedulers.dfrs.greedy_pmtn as greedy_pmtn_module

    original_inc = greedy_pmtn_module.sort_by_increasing_priority
    original_dec = greedy_pmtn_module.sort_by_decreasing_priority
    try:
        greedy_pmtn_module.sort_by_increasing_priority = (
            lambda views, now: priority_module.sort_by_increasing_priority(
                views, now, exponent=exponent
            )
        )
        greedy_pmtn_module.sort_by_decreasing_priority = (
            lambda views, now: priority_module.sort_by_decreasing_priority(
                views, now, exponent=exponent
            )
        )
        stretches = []
        for workload in _instances_at_load(config, 0.7):
            outcome = run_instance(workload, config.algorithms, penalty_seconds=300.0)
            stretches.append(outcome.results["greedy-pmtn"].max_stretch)
        return float(np.mean(stretches))
    finally:
        greedy_pmtn_module.sort_by_increasing_priority = original_inc
        greedy_pmtn_module.sort_by_decreasing_priority = original_dec


@pytest.mark.benchmark(group="ablation")
def test_ablation_scheduling_period(benchmark, bench_config, report_artifact):
    """T = 600 s should be competitive with both T = 60 and T = 3600 (§III-B)."""
    config = replace(
        bench_config,
        num_traces=min(bench_config.num_traces, 2),
        load_levels=(0.7,),
        algorithms=(
            "dynmcb8-asap-per-60",
            "dynmcb8-asap-per-600",
            "dynmcb8-asap-per-3600",
        ),
    )

    def run_all():
        stretches: Dict[str, List[float]] = {name: [] for name in config.algorithms}
        for workload in _instances_at_load(config, 0.7):
            outcome = run_instance(workload, config.algorithms, penalty_seconds=300.0)
            for name, result in outcome.results.items():
                stretches[name].append(result.max_stretch)
        return {name: float(np.mean(values)) for name, values in stretches.items()}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[name, value] for name, value in results.items()]
    report_artifact(
        "ablation_period",
        format_table(
            ["algorithm", "mean max stretch (load 0.7, 5-min penalty)"],
            rows,
            title="Ablation: scheduling period T for DYNMCB8-ASAP-PER",
        ),
    )
    for value in results.values():
        assert value >= 1.0
