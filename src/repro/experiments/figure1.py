"""Figure 1 reproduction: average degradation factor vs. offered load.

Figure 1(a) uses no rescheduling penalty; Figure 1(b) charges the 5-minute
penalty.  Each data point of the paper is the average, over 100 instances, of
the per-instance degradation factor at one load level; the reproduction runs
the same sweep at a configurable scale.

The driver is a thin builder over :mod:`repro.campaign`: it runs the
``figure1`` scenario (synthetic traces × load axis) and reads the averages
off the campaign rows.  Results are byte-identical to the pre-campaign
implementation (see ``tests/experiments/test_golden_outputs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.report import format_figure_series
from ..campaign.executor import Campaign
from ..campaign.result import CampaignResult
from ..campaign.studies import ExperimentConfig, figure1_scenario

__all__ = ["Figure1Result", "run_figure1"]


@dataclass
class Figure1Result:
    """Average degradation factor per algorithm and load level."""

    penalty_seconds: float
    #: load level -> algorithm -> average degradation factor
    points: Dict[float, Dict[str, float]] = field(default_factory=dict)
    #: Campaigns behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    def series(self) -> Dict[str, Dict[float, float]]:
        """Transpose to {algorithm -> {load -> average degradation factor}}."""
        output: Dict[str, Dict[float, float]] = {}
        for load, values in self.points.items():
            for algorithm, average in values.items():
                output.setdefault(algorithm, {})[load] = average
        return output

    def format(self) -> str:
        label = (
            "no rescheduling penalty"
            if self.penalty_seconds == 0
            else f"{self.penalty_seconds:.0f}-second rescheduling penalty"
        )
        return format_figure_series(
            self.series(),
            title=(
                "Figure 1: average stretch degradation factor vs. load "
                f"({label})"
            ),
        )


def run_figure1(
    config: ExperimentConfig,
    *,
    penalty_seconds: Optional[float] = None,
    campaign: Optional[Campaign] = None,
) -> Figure1Result:
    """Run the Figure 1 sweep at the configured scale."""
    penalty = config.penalty_seconds if penalty_seconds is None else penalty_seconds
    campaign = campaign or Campaign(workers=config.workers)
    outcome = campaign.run(figure1_scenario(config, penalty_seconds=penalty))
    result = Figure1Result(penalty_seconds=penalty, campaigns=[outcome])
    for load in config.load_levels:
        result.points[load] = outcome.degradation_averages(load=load)
    return result
