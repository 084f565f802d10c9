"""Execution layer of the experiment harness.

Runs one or more scheduling algorithms over one or more workload instances
and gathers the per-instance maximum bounded stretches that every downstream
artifact (Figure 1, Table I) is built from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.cluster import Cluster
from ..core.engine import SimulationConfig, Simulator
from ..core.metrics import degradation_factors
from ..core.penalties import ReschedulingPenaltyModel
from ..core.records import SimulationResult
from ..schedulers.registry import create_scheduler
from ..workloads.model import Workload
from .config import ExperimentConfig

__all__ = [
    "InstanceResult",
    "resolve_simulation_config",
    "run_algorithm",
    "run_instance",
    "run_instances",
    "generate_synthetic_instances",
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


def run_instances(
    workloads: Sequence[Workload],
    algorithms: Sequence[str],
    *,
    penalty_seconds: float = 0.0,
    simulation_config: Optional[SimulationConfig] = None,
    workers: Optional[int] = None,
) -> List[InstanceResult]:
    """Simulate many workloads under many algorithms, optionally in parallel.

    With ``workers`` unset (or 1) this is a plain serial loop of
    :func:`run_instance`; larger values fan the *instances × algorithms*
    grid out over a process pool (see :mod:`repro.experiments.parallel`)
    with results identical to the serial run.
    """
    from .parallel import run_instances as _run_instances_parallel

    return _run_instances_parallel(
        workloads,
        algorithms,
        penalty_seconds=penalty_seconds,
        simulation_config=simulation_config,
        workers=workers,
    )


def generate_synthetic_instances(
    config: ExperimentConfig,
    *,
    load: Optional[float] = None,
) -> List[Workload]:
    """Generate the synthetic traces of one experimental cell.

    With ``load=None`` the unscaled traces are returned; otherwise each trace
    is rescaled (identical job mix, stretched inter-arrival times) to the
    requested offered load.  The per-trace seeding/naming scheme lives in
    :func:`repro.experiments.parallel._generate_one`, shared with the
    parallel generator so ``workers=N`` produces the exact same traces.
    """
    from .parallel import _generate_one

    return [
        _generate_one((config, index, load)) for index in range(config.num_traces)
    ]
