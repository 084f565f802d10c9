"""Simulate one workload under named algorithms, in process.

The "run this workload under that name" helper of the examples and the
integration tests.  Grids of instances × algorithms — every table and
figure of the paper — go through :class:`repro.campaign.executor.Campaign`
instead, which owns the fan-out, the cache and the aggregation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..core.engine import SimulationConfig, Simulator
from ..core.metrics import degradation_factors
from ..core.penalties import ReschedulingPenaltyModel
from ..core.records import SimulationResult
from ..schedulers.registry import create_scheduler
from ..workloads.model import Workload

__all__ = [
    "InstanceResult",
    "resolve_simulation_config",
    "run_algorithm",
    "run_instance",
]

_LOGGER = logging.getLogger(__name__)


@dataclass
class InstanceResult:
    """All algorithm runs for one workload instance."""

    workload_name: str
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    def max_stretches(self) -> Dict[str, float]:
        """Maximum bounded stretch per algorithm."""
        return {name: result.max_stretch for name, result in self.results.items()}

    def degradation_factors(self) -> Dict[str, float]:
        """Per-algorithm degradation factors for this instance."""
        return degradation_factors(self.max_stretches())


def resolve_simulation_config(
    penalty_seconds: float = 0.0,
    simulation_config: Optional[SimulationConfig] = None,
) -> SimulationConfig:
    """Engine configuration for one run.

    An explicit ``simulation_config`` wins wholesale (its own penalty model
    included) so per-scenario engine options such as
    ``record_scheduler_times`` reach single-run paths; otherwise a default configuration carrying
    ``penalty_seconds`` is built.
    """
    if simulation_config is not None:
        return simulation_config
    return SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty_seconds))


def run_algorithm(
    workload: Workload,
    algorithm: str,
    *,
    penalty_seconds: float = 0.0,
    simulation_config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate one workload under one algorithm."""
    scheduler = create_scheduler(algorithm)
    simulator = Simulator(
        workload.cluster,
        scheduler,
        resolve_simulation_config(penalty_seconds, simulation_config),
    )
    return simulator.run(workload.jobs)


def run_instance(
    workload: Workload,
    algorithms: Sequence[str],
    *,
    penalty_seconds: float = 0.0,
    simulation_config: Optional[SimulationConfig] = None,
) -> InstanceResult:
    """Simulate one workload under every requested algorithm."""
    instance = InstanceResult(workload_name=workload.name)
    for algorithm in algorithms:
        _LOGGER.debug("running %s on %s", algorithm, workload.name)
        instance.results[algorithm] = run_algorithm(
            workload,
            algorithm,
            penalty_seconds=penalty_seconds,
            simulation_config=simulation_config,
        )
    return instance
