"""Scheduling-period sensitivity study (paper §III-B, last paragraph).

The paper reports that T = 600 s "is sufficiently small to achieve results
comparable to those using the much smaller period, and sufficiently large to
lead to overhead comparable to that using the much larger period", based on
experiments with T ∈ {60, 600, 3600}.  This experiment reproduces that
sensitivity sweep for any of the periodic DFRS algorithms: for every period it
reports the mean maximum bounded stretch and the preemption/migration rates.

The driver is a thin builder over :mod:`repro.campaign`: the period is a
sweep axis feeding the ``{period}`` algorithm-name template (see
:func:`repro.campaign.studies.period_sweep_scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import format_table
from ..campaign.executor import Campaign
from ..campaign.result import CampaignResult
from ..campaign.studies import ExperimentConfig, period_sweep_scenario
from ..exceptions import ConfigurationError

__all__ = ["PeriodSweepResult", "run_period_sweep", "DEFAULT_PERIODS"]

#: The periods evaluated by the paper (seconds).
DEFAULT_PERIODS: Tuple[float, ...] = (60.0, 600.0, 3600.0)


@dataclass(frozen=True)
class PeriodPoint:
    """Aggregate outcome of one (algorithm base, period) cell."""

    algorithm: str
    period_seconds: float
    mean_max_stretch: float
    max_max_stretch: float
    preemptions_per_hour: float
    migrations_per_hour: float


@dataclass
class PeriodSweepResult:
    """Outcome of the period sensitivity sweep."""

    base_algorithm: str
    load: float
    penalty_seconds: float
    points: List[PeriodPoint] = field(default_factory=list)
    #: Campaigns behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    def best_period(self) -> float:
        """Period with the lowest mean maximum stretch."""
        if not self.points:
            raise ConfigurationError("the sweep produced no data points")
        return min(self.points, key=lambda point: point.mean_max_stretch).period_seconds

    def format(self) -> str:
        rows = [
            [
                f"{point.period_seconds:.0f}",
                point.mean_max_stretch,
                point.max_max_stretch,
                point.preemptions_per_hour,
                point.migrations_per_hour,
            ]
            for point in self.points
        ]
        return format_table(
            ["period (s)", "mean max stretch", "worst max stretch", "pmtn/h", "migr/h"],
            rows,
            title=(
                f"Period sensitivity of {self.base_algorithm} "
                f"(load {self.load:g}, {self.penalty_seconds:.0f}-second penalty)"
            ),
        )


def run_period_sweep(
    config: ExperimentConfig,
    *,
    base_algorithm: str = "dynmcb8-asap-per",
    periods: Sequence[float] = DEFAULT_PERIODS,
    load: float = 0.7,
    penalty_seconds: Optional[float] = None,
    campaign: Optional[Campaign] = None,
) -> PeriodSweepResult:
    """Evaluate ``base_algorithm`` for every period in ``periods``.

    ``base_algorithm`` must be the unsuffixed name of a periodic algorithm
    (``dynmcb8-per``, ``dynmcb8-asap-per``, ``dynmcb8-stretch-per``, ...); the
    period suffix is appended internally.
    """
    penalty = config.penalty_seconds if penalty_seconds is None else penalty_seconds
    scenario = period_sweep_scenario(
        config,
        base_algorithm=base_algorithm,
        periods=periods,
        load=load,
        penalty_seconds=penalty,
    )
    campaign = campaign or Campaign(workers=config.workers)
    outcome = campaign.run(scenario)

    result = PeriodSweepResult(
        base_algorithm=base_algorithm,
        load=load,
        penalty_seconds=penalty,
        campaigns=[outcome],
    )
    for period in periods:
        rows = outcome.select(
            algorithm=f"{base_algorithm}-{int(period)}", period=int(period)
        )
        result.points.append(
            PeriodPoint(
                algorithm=f"{base_algorithm}-{int(period)}",
                period_seconds=float(period),
                mean_max_stretch=float(
                    np.mean([row.metric("max_stretch") for row in rows])
                ),
                max_max_stretch=float(
                    np.max([row.metric("max_stretch") for row in rows])
                ),
                preemptions_per_hour=float(
                    np.mean([row.metric("pmtn_per_hour") for row in rows])
                ),
                migrations_per_hour=float(
                    np.mean([row.metric("migr_per_hour") for row in rows])
                ),
            )
        )
    return result
