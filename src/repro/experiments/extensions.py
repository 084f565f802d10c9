"""Evaluation of the extension schedulers against the paper's winner.

The paper's conclusion sketches two follow-up mechanisms — throttling the
yield of long-running jobs, and user priorities — and this repository also
adds a conservative-backfilling batch baseline.  This experiment compares all
of them against DYNMCB8-ASAP-PER (the paper's best algorithm) and against
EASY on the scaled synthetic traces, using the same degradation-factor
methodology as Table I.

The driver is a thin builder over :mod:`repro.campaign` (the ``extensions``
scenario is the Table I scaled scenario with a different algorithm set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..campaign.executor import Campaign
from ..campaign.result import CampaignResult
from ..campaign.studies import ExperimentConfig, extensions_scenario
from ..core.metrics import DegradationStats
from ..exceptions import ConfigurationError

__all__ = ["ExtensionsResult", "run_extensions_comparison", "EXTENSION_ALGORITHMS"]

#: The default algorithm set: paper baselines, the paper's winner, and the
#: three extensions implemented beyond the paper.
EXTENSION_ALGORITHMS: Tuple[str, ...] = (
    "easy",
    "conservative",
    "dynmcb8-asap-per-600",
    "dynmcb8-asap-throttled-per-600",
    "dynmcb8-asap-weighted-per-600",
)


@dataclass
class ExtensionsResult:
    """Degradation statistics of the extension algorithms."""

    penalty_seconds: float
    load_levels: Tuple[float, ...]
    stats: Dict[str, DegradationStats] = field(default_factory=dict)
    #: Campaigns behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    def best_algorithm(self) -> str:
        if not self.stats:
            raise ConfigurationError("the comparison produced no statistics")
        return min(self.stats, key=lambda name: self.stats[name].average)

    def format(self) -> str:
        rows = [
            [name, stats.average, stats.std, stats.maximum]
            for name, stats in sorted(
                self.stats.items(), key=lambda pair: pair[1].average
            )
        ]
        return format_table(
            ["algorithm", "deg. avg", "deg. std", "deg. max"],
            rows,
            title=(
                "Extensions vs. paper algorithms: degradation factors "
                f"(loads {', '.join(f'{l:g}' for l in self.load_levels)}, "
                f"{self.penalty_seconds:.0f}-second penalty)"
            ),
        )


def run_extensions_comparison(
    config: ExperimentConfig,
    *,
    algorithms: Sequence[str] = EXTENSION_ALGORITHMS,
    penalty_seconds: Optional[float] = None,
    campaign: Optional[Campaign] = None,
) -> ExtensionsResult:
    """Run the extension comparison at the configured scale."""
    penalty = config.penalty_seconds if penalty_seconds is None else penalty_seconds
    scenario = extensions_scenario(
        config, penalty_seconds=penalty, algorithms=algorithms
    )
    campaign = campaign or Campaign(workers=config.workers)
    outcome = campaign.run(scenario)
    return ExtensionsResult(
        penalty_seconds=penalty,
        load_levels=tuple(config.load_levels),
        stats=outcome.degradation_stats(),
        campaigns=[outcome],
    )
