"""Packing-heuristic ablation: how much does MCB8's balancing matter?

The paper adopts MCB8 on the strength of prior work; this experiment measures
the choice directly.  For a population of packing instances drawn from the
paper's job-mix distributions, every registered packer
(:data:`repro.packing.PACKER_NAMES`) runs the same minimum-yield binary
search, and the achieved yields are compared against each other and against
the heuristic-independent CPU-capacity upper bound.

The study has no simulation behind it, so it does not build a
:class:`~repro.campaign.scenario.Scenario`; instead it rides the campaign
layer's generic grid primitive (:func:`repro.campaign.executor.map_tasks`,
one task per ``packer × instance`` cell) and materialises its rows as a
:class:`~repro.campaign.result.CampaignResult` for uniform export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import format_table
from ..campaign.executor import map_tasks
from ..campaign.result import CampaignResult, RunRecord
from ..campaign.scenario import payload_hash
from ..exceptions import ConfigurationError
from ..packing import (
    PACKER_NAMES,
    PackingJob,
    cpu_capacity_yield_bound,
    get_packer,
    maximize_min_yield,
)
from ..workloads.memory import MemoryRequirementModel

__all__ = ["PackingAblationResult", "generate_packing_instances", "run_packing_ablation"]


def generate_packing_instances(
    num_instances: int,
    jobs_per_instance: int,
    *,
    seed: int = 0,
    cores_per_node: int = 4,
) -> List[List[PackingJob]]:
    """Random packing instances drawn from the paper's job distributions.

    Job widths follow a power-of-two mix, CPU needs follow the quad-core rule
    (25 % for sequential tasks, 100 % otherwise), and memory requirements
    follow the Setia-style model of §IV-C.
    """
    if num_instances < 1 or jobs_per_instance < 1:
        raise ConfigurationError("num_instances and jobs_per_instance must be >= 1")
    rng = np.random.default_rng(seed)
    memory_model = MemoryRequirementModel()
    instances: List[List[PackingJob]] = []
    for _ in range(num_instances):
        jobs: List[PackingJob] = []
        for job_id in range(jobs_per_instance):
            tasks = int(rng.choice([1, 2, 4, 8, 16], p=[0.4, 0.2, 0.2, 0.15, 0.05]))
            cpu = (1.0 / cores_per_node) if tasks == 1 else 1.0
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


@dataclass(frozen=True)
class PackerScore:
    """Aggregate outcome of one packer over the instance population."""

    packer: str
    mean_yield: float
    worst_yield: float
    #: Mean ratio of the achieved yield to the CPU-capacity upper bound.
    mean_bound_ratio: float
    failures: int


@dataclass
class PackingAblationResult:
    """Outcome of the packing-heuristic ablation."""

    num_nodes: int
    num_instances: int
    scores: List[PackerScore] = field(default_factory=list)
    #: Campaign rows behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    def ranking(self) -> List[str]:
        """Packer names sorted by decreasing mean achieved yield."""
        return [
            score.packer
            for score in sorted(self.scores, key=lambda s: -s.mean_yield)
        ]

    def score_for(self, packer: str) -> PackerScore:
        for score in self.scores:
            if score.packer == packer:
                return score
        raise ConfigurationError(f"no score recorded for packer {packer!r}")

    def format(self) -> str:
        rows = [
            [
                score.packer,
                score.mean_yield,
                score.worst_yield,
                score.mean_bound_ratio,
                score.failures,
            ]
            for score in sorted(self.scores, key=lambda s: -s.mean_yield)
        ]
        return format_table(
            ["packer", "mean min-yield", "worst min-yield", "vs. capacity bound", "failures"],
            rows,
            title=(
                f"Packing ablation: achievable minimum yield on {self.num_instances} "
                f"instances, {self.num_nodes} nodes"
            ),
        )


def _score_cell(task: Tuple[str, List[PackingJob], int]) -> Dict[str, float]:
    """One ``packer × instance`` grid cell (module-level for the pool)."""
    packer_name, jobs, num_nodes = task
    packer = get_packer(packer_name)
    bound = cpu_capacity_yield_bound(jobs, num_nodes)
    outcome = maximize_min_yield(jobs, num_nodes, packer=packer)
    if not outcome.success:
        return {"min_yield": 0.0, "bound_ratio": 0.0, "bound": bound, "success": 0}
    return {
        "min_yield": outcome.yield_value,
        "bound_ratio": outcome.yield_value / bound if bound > 0 else 1.0,
        "bound": bound,
        "success": 1,
    }


def run_packing_ablation(
    *,
    num_nodes: int = 32,
    num_instances: int = 25,
    jobs_per_instance: int = 24,
    seed: int = 9,
    packers: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> PackingAblationResult:
    """Compare every requested packer on a shared instance population."""
    if num_nodes < 1:
        raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
    names = tuple(packers) if packers is not None else PACKER_NAMES
    if not names:
        raise ConfigurationError("packers must not be empty")
    instances = generate_packing_instances(
        num_instances, jobs_per_instance, seed=seed
    )

    spec = {
        "name": "packing-ablation",
        "source": {
            "type": "packing-random",
            "num_instances": num_instances,
            "jobs_per_instance": jobs_per_instance,
            "seed": seed,
        },
        "num_nodes": num_nodes,
        "packers": list(names),
    }
    tasks = [
        (name, jobs, num_nodes) for name in names for jobs in instances
    ]
    metrics = map_tasks(_score_cell, tasks, workers=workers)

    rows: List[RunRecord] = []
    cursor = iter(metrics)
    for cell_index, name in enumerate(names):
        for instance_index in range(len(instances)):
            rows.append(
                RunRecord(
                    cell_index=cell_index,
                    instance_index=instance_index,
                    workload=f"packing-{instance_index:03d}",
                    algorithm=name,
                    params=(("packer", name),),
                    metrics=next(cursor),
                )
            )
    campaign_result = CampaignResult(
        scenario=spec, scenario_hash=payload_hash(spec), rows=rows
    )

    result = PackingAblationResult(
        num_nodes=num_nodes,
        num_instances=len(instances),
        campaigns=[campaign_result],
    )
    for name in names:
        selected = campaign_result.select(algorithm=name)
        yields = [row.metric("min_yield") for row in selected]
        ratios = [row.metric("bound_ratio") for row in selected]
        failures = sum(1 for row in selected if not row.metric("success"))
        result.scores.append(
            PackerScore(
                packer=name,
                mean_yield=float(np.mean(yields)),
                worst_yield=float(np.min(yields)),
                mean_bound_ratio=float(np.mean(ratios)),
                failures=failures,
            )
        )
    return result
