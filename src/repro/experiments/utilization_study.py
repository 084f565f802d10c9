"""Cluster utilization, energy, and fairness study (paper §II-B2 remark).

The paper notes that once the minimum yield is maximized, leftover capacity
either raises the average yield or — on an under-subscribed cluster — lets
idle nodes be powered down.  This experiment quantifies both effects for any
set of algorithms on one synthetic trace per configuration.

The driver is a thin builder over :mod:`repro.campaign`: the ``utilization``
metric collector attaches a
:class:`~repro.core.observers.UtilizationRecorder` inside each worker and
ships back the busy-node/energy/fairness metrics, from which the typed
:class:`~repro.analysis.energy.EnergyReport` and
:class:`~repro.analysis.fairness.FairnessReport` are reconstructed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.energy import EnergyReport, NodePowerModel
from ..analysis.fairness import FairnessReport
from ..analysis.report import format_table
from ..campaign.executor import Campaign
from ..campaign.result import CampaignResult
from ..campaign.studies import ExperimentConfig, utilization_scenario
from ..exceptions import ConfigurationError

__all__ = ["AlgorithmUtilization", "UtilizationStudyResult", "run_utilization_study"]


@dataclass(frozen=True)
class AlgorithmUtilization:
    """Utilization profile of one algorithm on one workload."""

    algorithm: str
    max_stretch: float
    mean_busy_nodes: float
    peak_busy_nodes: int
    mean_cpu_allocated: float
    energy: EnergyReport
    fairness: FairnessReport


@dataclass
class UtilizationStudyResult:
    """Outcome of the utilization/energy study."""

    load: float
    penalty_seconds: float
    num_nodes: int
    profiles: List[AlgorithmUtilization] = field(default_factory=list)
    #: Campaigns behind this artifact (for ``--export-dir`` persistence).
    campaigns: List[CampaignResult] = field(
        default_factory=list, repr=False, compare=False
    )

    def profile_for(self, algorithm: str) -> AlgorithmUtilization:
        for profile in self.profiles:
            if profile.algorithm == algorithm:
                return profile
        raise ConfigurationError(f"no profile recorded for algorithm {algorithm!r}")

    def format(self) -> str:
        rows = [
            [
                profile.algorithm,
                profile.max_stretch,
                profile.mean_busy_nodes,
                profile.peak_busy_nodes,
                profile.mean_cpu_allocated,
                f"{100.0 * profile.energy.savings_fraction:.1f}%",
                profile.fairness.jain_stretch,
            ]
            for profile in self.profiles
        ]
        return format_table(
            [
                "algorithm",
                "max stretch",
                "mean busy nodes",
                "peak busy nodes",
                "mean CPU alloc",
                "idle power-down savings",
                "Jain(stretch)",
            ],
            rows,
            title=(
                f"Utilization and energy study ({self.num_nodes} nodes, load "
                f"{self.load:g}, {self.penalty_seconds:.0f}-second penalty)"
            ),
        )


def _profile_from_metrics(algorithm: str, metrics: Dict) -> AlgorithmUtilization:
    """Rebuild the typed utilization profile from campaign row metrics."""
    energy = EnergyReport(
        algorithm=algorithm,
        duration_seconds=metrics["energy_duration_seconds"],
        busy_node_seconds=metrics["energy_busy_node_seconds"],
        idle_node_seconds=metrics["energy_idle_node_seconds"],
        always_on_joules=metrics["energy_always_on_joules"],
        power_down_joules=metrics["energy_power_down_joules"],
    )
    fairness = FairnessReport(
        algorithm=algorithm,
        num_jobs=int(metrics["num_jobs"]),
        max_stretch=metrics["max_stretch"],
        mean_stretch=metrics["mean_stretch"],
        jain_stretch=metrics["jain_stretch"],
        gini_stretch=metrics["gini_stretch"],
        p95_stretch=metrics["p95_stretch"],
    )
    return AlgorithmUtilization(
        algorithm=algorithm,
        max_stretch=metrics["max_stretch"],
        mean_busy_nodes=metrics["mean_busy_nodes"],
        peak_busy_nodes=int(metrics["peak_busy_nodes"]),
        mean_cpu_allocated=metrics["mean_cpu_allocated"],
        energy=energy,
        fairness=fairness,
    )


def run_utilization_study(
    config: ExperimentConfig,
    *,
    load: float = 0.5,
    penalty_seconds: Optional[float] = None,
    algorithms: Optional[Sequence[str]] = None,
    power_model: Optional[NodePowerModel] = None,
    campaign: Optional[Campaign] = None,
) -> UtilizationStudyResult:
    """Profile utilization, energy, and fairness for each algorithm.

    One synthetic trace (the first of the configuration) is scaled to the
    requested load and run under every algorithm with a utilization recorder
    attached.
    """
    penalty = config.penalty_seconds if penalty_seconds is None else penalty_seconds
    names = tuple(algorithms) if algorithms is not None else config.algorithms
    power_options = None
    if power_model is not None:
        power_options = {
            "busy_watts": power_model.busy_watts,
            "idle_watts": power_model.idle_watts,
            "off_watts": power_model.off_watts,
        }
    scenario = utilization_scenario(
        config,
        load=load,
        penalty_seconds=penalty,
        algorithms=names,
        power_options=power_options,
    )
    campaign = campaign or Campaign(workers=config.workers)
    outcome = campaign.run(scenario)

    study = UtilizationStudyResult(
        load=load,
        penalty_seconds=penalty,
        num_nodes=config.cluster.num_nodes,
        campaigns=[outcome],
    )
    for name in names:
        row = outcome.select(algorithm=name)[0]
        study.profiles.append(_profile_from_metrics(name, dict(row.metrics)))
    return study
