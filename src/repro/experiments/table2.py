"""Table II reproduction: preemption and migration costs under high load.

For the scaled synthetic traces with offered load at least 0.7 and the
5-minute rescheduling penalty, Table II reports — for every algorithm that
preempts or migrates — the average (and worst-trace maximum) of:

* bandwidth consumed by preemptions and by migrations, in GB/s,
* preemption and migration occurrences per hour,
* preemption and migration occurrences per job.

The driver is a thin builder over :mod:`repro.campaign`: the ``table2``
scenario sweeps the high-load levels with the ``costs`` metric collector,
and the statistics are reduced from the campaign rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.report import format_table
from ..campaign.executor import Campaign
from ..campaign.result import CampaignResult
from ..campaign.studies import ExperimentConfig, table2_scenario

__all__ = ["CostStatistics", "Table2Result", "run_table2", "TABLE2_ALGORITHMS"]

#: Algorithms reported in Table II (those that preempt and/or migrate).
TABLE2_ALGORITHMS = (
    "greedy-pmtn",
    "greedy-pmtn-migr",
    "dynmcb8",
    "dynmcb8-per-600",
    "dynmcb8-asap-per-600",
    "dynmcb8-stretch-per-600",
)

#: Load levels considered "high load" by Table II.
HIGH_LOAD_THRESHOLD = 0.7


@dataclass(frozen=True)
class CostStatistics:
    """Average and maximum of one cost metric over all instances."""

    average: float
    maximum: float


@dataclass
class Table2Result:
    """Per-algorithm preemption/migration cost statistics."""

    penalty_seconds: float
    #: algorithm -> metric name -> statistics
    metrics: Dict[str, Dict[str, CostStatistics]] = field(default_factory=dict)
    #: Campaigns behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    METRIC_NAMES = (
        "pmtn_bandwidth_gb_per_sec",
        "migr_bandwidth_gb_per_sec",
        "pmtn_per_hour",
        "migr_per_hour",
        "pmtn_per_job",
        "migr_per_job",
    )

    def format(self) -> str:
        headers = ["algorithm"] + [
            f"{name} (avg/max)" for name in self.METRIC_NAMES
        ]
        rows: List[List[object]] = []
        for algorithm, metrics in self.metrics.items():
            row: List[object] = [algorithm]
            for name in self.METRIC_NAMES:
                stats = metrics[name]
                row.append(f"{stats.average:.2f} ({stats.maximum:.2f})")
            rows.append(row)
        return format_table(
            headers,
            rows,
            title=(
                "Table II: preemption and migration costs, scaled synthetic "
                f"traces with load >= {HIGH_LOAD_THRESHOLD}, "
                f"{self.penalty_seconds:.0f}-second penalty"
            ),
        )


def run_table2(
    config: ExperimentConfig,
    *,
    penalty_seconds: Optional[float] = None,
    algorithms: Sequence[str] = TABLE2_ALGORITHMS,
    campaign: Optional[Campaign] = None,
) -> Table2Result:
    """Run the Table II campaign at the configured scale."""
    penalty = config.penalty_seconds if penalty_seconds is None else penalty_seconds
    scenario = table2_scenario(
        config,
        penalty_seconds=penalty,
        algorithms=algorithms,
        high_load_threshold=HIGH_LOAD_THRESHOLD,
    )
    campaign = campaign or Campaign(workers=config.workers)
    outcome = campaign.run(scenario)

    table = Table2Result(penalty_seconds=penalty, campaigns=[outcome])
    for algorithm in algorithms:
        rows = outcome.select(algorithm=algorithm)
        table.metrics[algorithm] = {
            name: CostStatistics(
                average=float(np.mean([row.metric(name) for row in rows]))
                if rows
                else 0.0,
                maximum=float(np.max([row.metric(name) for row in rows]))
                if rows
                else 0.0,
            )
            for name in Table2Result.METRIC_NAMES
        }
    return table
