"""Scheduling-decision timing study (paper §V, last paragraph).

The paper instruments DYNMCB8 on the unscaled synthetic traces and reports
that allocations for 10 or fewer jobs are computed in under a millisecond for
two thirds of the events, with a mean around 0.25 s and a maximum under
4.5 s — orders of magnitude below typical job inter-arrival times, hence the
feasibility claim.  This module reproduces those statistics on the local
machine (absolute numbers depend on the host; the claim is about the shape).

The driver is a thin builder over :mod:`repro.campaign`: the ``timing``
metric collector ships the raw per-event scheduler timings and inter-arrival
gaps back as row metrics, which this module pools into the §V statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..analysis.report import format_table
from ..campaign.executor import Campaign
from ..campaign.result import CampaignResult
from ..campaign.studies import ExperimentConfig, timing_scenario

__all__ = ["TimingResult", "run_timing_study"]


@dataclass
class TimingResult:
    """Statistics of per-event scheduling computation time."""

    algorithm: str
    num_observations: int
    mean_seconds: float
    max_seconds: float
    #: Fraction of small events (<= ``small_job_threshold`` jobs) faster than
    #: ``fast_threshold_seconds``.
    small_event_fast_fraction: float
    small_job_threshold: int
    fast_threshold_seconds: float
    mean_interarrival_seconds: float
    #: Campaigns behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    def format(self) -> str:
        rows = [
            ["observations", self.num_observations],
            ["mean scheduling time (s)", self.mean_seconds],
            ["max scheduling time (s)", self.max_seconds],
            [
                f"fraction of <= {self.small_job_threshold}-job events under "
                f"{self.fast_threshold_seconds * 1000:.0f} ms",
                self.small_event_fast_fraction,
            ],
            ["mean job inter-arrival time (s)", self.mean_interarrival_seconds],
        ]
        return format_table(
            ["statistic", "value"],
            rows,
            title=f"Scheduling-time study for {self.algorithm} (§V)",
            float_format="{:.4f}",
        )


def run_timing_study(
    config: ExperimentConfig,
    *,
    algorithm: str = "dynmcb8",
    small_job_threshold: int = 10,
    fast_threshold_seconds: float = 0.001,
    campaign: Optional[Campaign] = None,
) -> TimingResult:
    """Measure scheduling computation time on the unscaled synthetic traces.

    Runs are always serial: the reported statistics are wall-clock
    measurements, and fanning them out over a pool would inflate them with
    core contention.  (For the same reason, a cache replays the timings of
    the host that originally ran the scenario.)
    """
    cache_dir = campaign.cache_dir if campaign is not None else None
    campaign = Campaign(workers=1, cache_dir=cache_dir)
    outcome = campaign.run(timing_scenario(config, algorithm=algorithm))

    times: List[float] = []
    counts: List[int] = []
    interarrivals: List[float] = []
    for row in outcome.rows:
        times.extend(row.metric("scheduler_times"))
        counts.extend(row.metric("scheduler_job_counts"))
        interarrivals.extend(row.metric("interarrivals"))

    times_array = np.asarray(times, dtype=float)
    counts_array = np.asarray(counts, dtype=int)
    small_mask = counts_array <= small_job_threshold
    if small_mask.any():
        fast_fraction = float(
            np.mean(times_array[small_mask] <= fast_threshold_seconds)
        )
    else:
        fast_fraction = 0.0
    return TimingResult(
        algorithm=algorithm,
        num_observations=int(times_array.size),
        mean_seconds=float(times_array.mean()) if times_array.size else 0.0,
        max_seconds=float(times_array.max()) if times_array.size else 0.0,
        small_event_fast_fraction=fast_fraction,
        small_job_threshold=small_job_threshold,
        fast_threshold_seconds=fast_threshold_seconds,
        mean_interarrival_seconds=(
            float(np.mean(interarrivals)) if interarrivals else 0.0
        ),
        campaigns=[outcome],
    )
