"""Table I reproduction: degradation statistics on three workload families.

Table I of the paper reports, for each algorithm and a 5-minute rescheduling
penalty, the average, standard deviation, and maximum degradation factor on:

* the scaled synthetic traces (all load levels pooled together),
* the unscaled synthetic traces straight out of the Lublin model,
* the real-world HPC2N workload split into 1-week segments (reproduced here
  with the HPC2N-like synthetic stand-in, see DESIGN.md).

The driver is a thin builder over :mod:`repro.campaign`: one scenario per
workload family (see :func:`repro.campaign.studies.table1_scenarios`), with
the column statistics pooled from the campaign rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.report import format_table
from ..campaign.executor import Campaign
from ..campaign.result import CampaignResult
from ..campaign.studies import ExperimentConfig, table1_scenarios
from ..core.metrics import DegradationStats

__all__ = ["Table1Result", "run_table1"]

_COLUMNS = ("scaled", "unscaled", "real")


@dataclass
class Table1Result:
    """Degradation statistics per algorithm for the three workload families."""

    penalty_seconds: float
    #: column name ("scaled" | "unscaled" | "real") -> algorithm -> stats
    columns: Dict[str, Dict[str, DegradationStats]] = field(default_factory=dict)
    #: Campaigns behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    def format(self) -> str:
        algorithms: List[str] = []
        for column in _COLUMNS:
            for algorithm in self.columns.get(column, {}):
                if algorithm not in algorithms:
                    algorithms.append(algorithm)
        headers = ["algorithm"]
        for column in _COLUMNS:
            headers += [f"{column}.avg", f"{column}.std", f"{column}.max"]
        rows = []
        for algorithm in algorithms:
            row: List[object] = [algorithm]
            for column in _COLUMNS:
                stats = self.columns.get(column, {}).get(algorithm)
                if stats is None:
                    row += ["-", "-", "-"]
                else:
                    row += [stats.average, stats.std, stats.maximum]
            rows.append(row)
        return format_table(
            headers,
            rows,
            title=(
                "Table I: degradation factor (avg/std/max), "
                f"{self.penalty_seconds:.0f}-second rescheduling penalty"
            ),
        )


def run_table1(
    config: ExperimentConfig,
    *,
    penalty_seconds: Optional[float] = None,
    campaign: Optional[Campaign] = None,
) -> Table1Result:
    """Run the Table I campaign at the configured scale."""
    penalty = config.penalty_seconds if penalty_seconds is None else penalty_seconds
    campaign = campaign or Campaign(workers=config.workers)
    result = Table1Result(penalty_seconds=penalty)
    for column, scenario in table1_scenarios(
        config, penalty_seconds=penalty
    ).items():
        outcome = campaign.run(scenario)
        result.columns[column] = outcome.degradation_stats()
        result.campaigns.append(outcome)
    return result
