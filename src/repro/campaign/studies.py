"""Scenario builders for the repository's standard studies.

Every experiment driver in :mod:`repro.experiments` is a thin wrapper that
builds its scenario(s) here, runs them through a
:class:`~repro.campaign.executor.Campaign`, and formats the rows.  The
builders take an :class:`ExperimentConfig` so that scale knobs (traces,
jobs, loads, seeds) stay in one place.

The paper's full campaign (100 traces × 1,000 jobs × 9 load levels × 9
algorithms × 2 penalty settings, plus 182 HPC2N weeks) takes CPU-days; the
:class:`ExperimentConfig` defaults are deliberately small so that the whole
benchmark suite runs in minutes on a laptop, while :func:`paper_scale`
returns the full-size configuration for users who want to spend the time.
The reproduced claims are about *relative* behaviour (who wins, by how much,
where crossovers fall), which is already visible at reduced scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..core.cluster import Cluster
from ..exceptions import ConfigurationError
from ..schedulers.registry import PAPER_ALGORITHMS
from .scenario import CollectorSpec, Hpc2nLikeSource, LublinSource, Scenario

__all__ = [
    "ExperimentConfig",
    "quick_scale",
    "default_scale",
    "paper_scale",
    "lublin_source",
    "scaled_scenario",
    "unscaled_scenario",
    "hpc2n_scenario",
    "figure1_scenario",
    "table1_scenarios",
    "table2_scenario",
    "extensions_scenario",
    "period_sweep_scenario",
    "utilization_scenario",
    "timing_scenario",
    "compare_scenario",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and content of a reproduction campaign."""

    #: Cluster simulated for the synthetic (Lublin) experiments.
    cluster: Cluster = field(default_factory=lambda: Cluster(128, 4, 8.0))
    #: Number of independent synthetic traces per load level.
    num_traces: int = 3
    #: Number of jobs per synthetic trace.
    num_jobs: int = 150
    #: Offered-load levels for the scaled-trace experiments (Figure 1).
    load_levels: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    #: Algorithms to evaluate, by registry name.
    algorithms: Tuple[str, ...] = tuple(PAPER_ALGORITHMS)
    #: Rescheduling penalty in seconds (0 or 300 in the paper).
    penalty_seconds: float = 300.0
    #: Base random seed; trace ``i`` uses ``seed_base + i``.
    seed_base: int = 2010
    #: Number of 1-week HPC2N-like segments for the real-world column.
    hpc2n_weeks: int = 2
    #: Jobs per HPC2N-like week (the real trace averages ~1,100).
    hpc2n_jobs_per_week: int = 400
    #: Worker processes for instance x algorithm fan-out (1 = serial,
    #: 0 or negative = one worker per CPU); results are identical either way.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.num_traces < 1:
            raise ConfigurationError("num_traces must be >= 1")
        if self.num_jobs < 2:
            raise ConfigurationError("num_jobs must be >= 2")
        if not self.load_levels:
            raise ConfigurationError("load_levels must not be empty")
        for level in self.load_levels:
            if not (0.0 < level):
                raise ConfigurationError(f"invalid load level {level}")
        if not self.algorithms:
            raise ConfigurationError("algorithms must not be empty")
        if self.penalty_seconds < 0:
            raise ConfigurationError("penalty_seconds must be >= 0")
        if self.hpc2n_weeks < 1:
            raise ConfigurationError("hpc2n_weeks must be >= 1")
        if self.hpc2n_jobs_per_week < 2:
            raise ConfigurationError("hpc2n_jobs_per_week must be >= 2")

    def with_penalty(self, penalty_seconds: float) -> ExperimentConfig:
        """Copy of this configuration with a different rescheduling penalty."""
        return replace(self, penalty_seconds=penalty_seconds)

    def with_algorithms(self, algorithms: Sequence[str]) -> ExperimentConfig:
        """Copy of this configuration evaluating a different algorithm set."""
        return replace(self, algorithms=tuple(algorithms))


def quick_scale() -> ExperimentConfig:
    """Tiny configuration used by CI-style smoke tests (< 1 minute)."""
    return ExperimentConfig(
        cluster=Cluster(32, 4, 8.0),
        num_traces=2,
        num_jobs=60,
        load_levels=(0.3, 0.7),
        hpc2n_weeks=1,
        hpc2n_jobs_per_week=80,
    )


def default_scale() -> ExperimentConfig:
    """Default laptop-scale configuration used by the benchmark harness."""
    return ExperimentConfig()


def paper_scale() -> ExperimentConfig:
    """The full experimental campaign of the paper (very long running)."""
    return ExperimentConfig(
        cluster=Cluster(128, 4, 8.0),
        num_traces=100,
        num_jobs=1000,
        load_levels=tuple(round(0.1 * i, 1) for i in range(1, 10)),
        hpc2n_weeks=182,
        hpc2n_jobs_per_week=1100,
    )


_STRETCH = (CollectorSpec("stretch"),)
_STRETCH_AND_COSTS = (CollectorSpec("stretch"), CollectorSpec("costs"))


def lublin_source(config: ExperimentConfig, *, num_traces: Optional[int] = None) -> LublinSource:
    """The synthetic-trace source of an experiment configuration."""
    return LublinSource(
        num_traces=config.num_traces if num_traces is None else num_traces,
        num_jobs=config.num_jobs,
        seed_base=config.seed_base,
    )


def scaled_scenario(
    name: str,
    config: ExperimentConfig,
    *,
    penalty_seconds: float,
    algorithms: Optional[Sequence[str]] = None,
    collectors: Tuple[CollectorSpec, ...] = _STRETCH,
    loads: Optional[Sequence[float]] = None,
) -> Scenario:
    """Synthetic traces swept over offered-load levels."""
    return Scenario(
        name=name,
        source=lublin_source(config),
        cluster=config.cluster,
        algorithms=tuple(algorithms if algorithms is not None else config.algorithms),
        penalty_seconds=penalty_seconds,
        sweep=(("load", tuple(loads if loads is not None else config.load_levels)),),
        collectors=collectors,
    )


def unscaled_scenario(
    name: str,
    config: ExperimentConfig,
    *,
    penalty_seconds: float,
    algorithms: Optional[Sequence[str]] = None,
    collectors: Tuple[CollectorSpec, ...] = _STRETCH,
) -> Scenario:
    """Synthetic traces straight out of the Lublin model (no load scaling)."""
    return Scenario(
        name=name,
        source=lublin_source(config),
        cluster=config.cluster,
        algorithms=tuple(algorithms if algorithms is not None else config.algorithms),
        penalty_seconds=penalty_seconds,
        collectors=collectors,
    )


def hpc2n_scenario(
    name: str,
    config: ExperimentConfig,
    *,
    penalty_seconds: float,
    algorithms: Optional[Sequence[str]] = None,
) -> Scenario:
    """HPC2N-like 1-week segments (the real-world Table I column).

    The scenario cluster is the HPC2N machine itself, not ``config.cluster``
    — the paper's real-world column simulates the traced system.
    """
    from ..workloads.hpc2n import HPC2N_CLUSTER

    return Scenario(
        name=name,
        source=Hpc2nLikeSource(
            weeks=config.hpc2n_weeks,
            jobs_per_week=config.hpc2n_jobs_per_week,
            seed_base=config.seed_base,
        ),
        cluster=HPC2N_CLUSTER,
        algorithms=tuple(algorithms if algorithms is not None else config.algorithms),
        penalty_seconds=penalty_seconds,
    )


def figure1_scenario(config: ExperimentConfig, *, penalty_seconds: float) -> Scenario:
    """The Figure 1 sweep: degradation factor vs. offered load."""
    return scaled_scenario("figure1", config, penalty_seconds=penalty_seconds)


def table1_scenarios(config: ExperimentConfig, *, penalty_seconds: float) -> Dict[str, Scenario]:
    """The three Table I workload families, keyed by column name."""
    return {
        "scaled": scaled_scenario(
            "table1-scaled", config, penalty_seconds=penalty_seconds
        ),
        "unscaled": unscaled_scenario(
            "table1-unscaled", config, penalty_seconds=penalty_seconds
        ),
        "real": hpc2n_scenario(
            "table1-real", config, penalty_seconds=penalty_seconds
        ),
    }


def table2_scenario(
    config: ExperimentConfig,
    *,
    penalty_seconds: float,
    algorithms: Sequence[str],
    high_load_threshold: float,
) -> Scenario:
    """The Table II study: preemption/migration costs under high load."""
    loads = [load for load in config.load_levels if load >= high_load_threshold]
    if not loads:
        raise ValueError(
            "Table II needs at least one load level >= "
            f"{high_load_threshold}; got {config.load_levels}"
        )
    return scaled_scenario(
        "table2",
        config,
        penalty_seconds=penalty_seconds,
        algorithms=algorithms,
        collectors=(CollectorSpec("costs"),),
        loads=loads,
    )


def extensions_scenario(
    config: ExperimentConfig, *, penalty_seconds: float, algorithms: Sequence[str]
) -> Scenario:
    """The extension-scheduler comparison over the scaled synthetic traces."""
    if not algorithms:
        raise ConfigurationError("algorithms must not be empty")
    return scaled_scenario(
        "extensions", config, penalty_seconds=penalty_seconds, algorithms=algorithms
    )


def period_sweep_scenario(
    config: ExperimentConfig,
    *,
    base_algorithm: str,
    periods: Sequence[float],
    load: float,
    penalty_seconds: float,
) -> Scenario:
    """The scheduling-period sensitivity sweep for one periodic algorithm."""
    if not periods:
        raise ConfigurationError("periods must not be empty")
    for period in periods:
        if period <= 0:
            raise ConfigurationError(f"periods must be > 0, got {period}")
    return Scenario(
        name="period-sweep",
        source=lublin_source(config),
        cluster=config.cluster,
        algorithms=(f"{base_algorithm}-{{period}}",),
        penalty_seconds=penalty_seconds,
        sweep=(("load", (load,)), ("period", tuple(int(p) for p in periods))),
        collectors=_STRETCH_AND_COSTS,
    )


def utilization_scenario(
    config: ExperimentConfig,
    *,
    load: float,
    penalty_seconds: float,
    algorithms: Optional[Sequence[str]] = None,
    power_options: Optional[Dict[str, float]] = None,
) -> Scenario:
    """The utilization/energy/fairness study on one synthetic trace."""
    names = tuple(algorithms if algorithms is not None else config.algorithms)
    if not names:
        raise ConfigurationError("algorithms must not be empty")
    utilization = CollectorSpec(
        "utilization", options=tuple(sorted((power_options or {}).items()))
    )
    return Scenario(
        name="utilization",
        source=lublin_source(config, num_traces=1),
        cluster=config.cluster,
        algorithms=names,
        penalty_seconds=penalty_seconds,
        sweep=(("load", (load,)),),
        collectors=(CollectorSpec("stretch"), utilization),
    )


def timing_scenario(config: ExperimentConfig, *, algorithm: str) -> Scenario:
    """The §V scheduling-time study on the unscaled synthetic traces."""
    return Scenario(
        name="timing",
        source=lublin_source(config),
        cluster=config.cluster,
        algorithms=(algorithm,),
        penalty_seconds=0.0,
        collectors=(CollectorSpec("timing"),),
    )


def compare_scenario(config: ExperimentConfig, *, load: float) -> Scenario:
    """Single-trace exploratory comparison (the ``compare`` subcommand)."""
    return Scenario(
        name="compare",
        source=lublin_source(config, num_traces=1),
        cluster=config.cluster,
        algorithms=tuple(config.algorithms),
        penalty_seconds=config.penalty_seconds,
        sweep=(("load", (load,)),),
        collectors=_STRETCH_AND_COSTS,
    )
